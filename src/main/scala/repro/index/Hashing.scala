package repro.index

/** The *shift-add-xor* string hashing class of Eq. 5 (after Ramakrishna &
  * Zobel), used to map category-entity pairs to hash-table buckets:
  *
  *   init(s)        = seed
  *   step(i, h, c)  = h ⊕ (L_L(h) + R_R(h) + c)
  *   final(h, T)    = h mod T
  */
object Hashing {

  /** Shift amounts `L`, `R` and the seed, from the original shift-add-xor family. */
  val ShiftL: Int = 5
  val ShiftR: Int = 2
  val Seed: Int = 31

  /** Hash a string into `[0, buckets)`. */
  def shiftAddXor(s: String, buckets: Int): Int = {
    require(buckets > 0, "buckets must be positive")
    var h = Seed
    var i = 0
    while (i < s.length) {
      h = step(h, s.charAt(i))
      i += 1
    }
    math.floorMod(h, buckets)
  }

  /** Canonical key string of a category-entity pair. */
  def pairKey(category: Int, entity: Int): String = s"c$category#e$entity"

  /** Bucket of a category-entity pair: `shiftAddXor(pairKey(category,
    * entity), buckets)`, computed over the key's characters without building
    * the key.
    */
  def pairHash(category: Int, entity: Int, buckets: Int): Int = {
    require(buckets > 0, "buckets must be positive")
    val h = decimal(step(step(decimal(step(Seed, 'c'), category), '#'), 'e'), entity)
    math.floorMod(h, buckets)
  }

  /** `step(i, h, c)` of Eq. 5. */
  private def step(h: Int, c: Int): Int = h ^ ((h << ShiftL) + (h >>> ShiftR) + c)

  /** `h` stepped over the characters of `x.toString`. */
  private def decimal(h0: Int, x: Int): Int = {
    var h = h0
    var v = x.toLong
    if (v < 0) { h = step(h, '-'); v = -v }
    var p = 1L
    while (p * 10 <= v) p *= 10
    while (p > 0) { h = step(h, '0' + (v / p % 10).toInt); p /= 10 }
    h
  }
}
