package repro.core

/** Weights of the recommendation score (Eq. 3): `λ_s` balances the short-term
  * component, `μ` is the Dirichlet smoothing mass.
  */
final case class RankParams(lambdaS: Double = 0.4, mu: Double = Ranking.Mu) {
  require(lambdaS >= 0.0 && lambdaS <= 1.0, s"lambdaS must be in [0,1], got $lambdaS")
  require(mu > 0.0, "mu must be positive")
}

/** An incoming item encoded as a query: category, producer, and the combined
  * coefficient of every entity in `E ∪ E'` (original entities weigh 1 per
  * occurrence; expansion entities weigh their proximity weight `w_e`), i.e.
  * the `F ⊗ W_e` frequency-times-weight vector of Example 1 / Eq. 6, folded
  * into one coefficient per entity: `weights(i)` is that of `entityIds(i)`,
  * ids sorted strictly ascending. No array is written after construction.
  */
final class ItemQuery(val itemId: Long, val category: Int, val producerId: Long,
                      val entityIds: Array[Int], val weights: Array[Double]) {
  require(entityIds.length == weights.length, "one weight per entity")
  require(entityIds.indices.drop(1).forall(i => entityIds(i - 1) < entityIds(i)),
          "entity ids must be distinct and ascending")
}

object Ranking {

  /** Dirichlet smoothing mass μ of Eq. 1 (the paper names no value). */
  val Mu: Double = 10.0
  private val PFloor: Double = 1e-12 // floor under every probability before its log

  /** The one order of every `(userId, score)` ranking: score desc, then userId asc. */
  val rankOrder: Ordering[(Long, Double)] = (a, b) => {
    val c = java.lang.Double.compare(b._2, a._2)
    if (c != 0) c else java.lang.Long.compare(a._1, b._1)
  }

  /** Keeps the k first `(userId, score)` pairs offered, in [[rankOrder]]:
    * a binary heap over parallel id and score arrays of size k, the worst
    * pair kept at the root. Offering allocates nothing.
    */
  final class TopK(k: Int) {
    private val ids = new Array[Long](math.max(k, 0))
    private val scores = new Array[Double](ids.length)
    private var size = 0

    /** Whether `(u1, s1)` comes before `(u2, s2)` in [[rankOrder]]. */
    private def before(u1: Long, s1: Double, u2: Long, s2: Double): Boolean = {
      val c = java.lang.Double.compare(s2, s1)
      if (c != 0) c < 0 else u1 < u2
    }

    /** Put `(u, s)` at slot `i` or below, moving later-ranked children up. */
    private def siftDown(from: Int, u: Long, s: Double): Unit = {
      var i = from
      var c = 2 * i + 1
      while (c < size) {
        if (c + 1 < size && before(ids(c), scores(c), ids(c + 1), scores(c + 1))) c += 1
        if (before(u, s, ids(c), scores(c))) {
          ids(i) = ids(c); scores(i) = scores(c)
          i = c; c = 2 * i + 1
        } else c = size
      }
      ids(i) = u; scores(i) = s
    }

    /** The k-th best score so far; -∞ until k pairs are kept. */
    def kthScore: Double = if (size >= k && size > 0) scores(0) else Double.NegativeInfinity

    def offer(userId: Long, score: Double): Unit =
      if (size < k) {
        var i = size
        size += 1
        while (i > 0 && before(ids((i - 1) >>> 1), scores((i - 1) >>> 1), userId, score)) {
          val p = (i - 1) >>> 1
          ids(i) = ids(p); scores(i) = scores(p)
          i = p
        }
        ids(i) = userId; scores(i) = score
      } else if (size > 0 && before(userId, score, ids(0), scores(0))) siftDown(0, userId, score)

    def offer(x: (Long, Double)): Unit = offer(x._1, x._2)

    /** The kept pairs, best first; the heap is left empty. */
    def drain(): Seq[(Long, Double)] = {
      val out = new Array[(Long, Double)](size)
      while (size > 0) {
        size -= 1
        out(size) = (ids(0), scores(0))
        if (size > 0) siftDown(0, ids(size), scores(size))
      }
      scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
    }
  }

  /** The k first `(userId, score)` pairs of `scored` in [[rankOrder]]. */
  def topK(scored: IterableOnce[(Long, Double)], k: Int): Seq[(Long, Double)] = {
    val top = new TopK(k); scored.iterator.foreach(x => top.offer(x)); top.drain()
  }

  /** Encode an item as a query, applying entity expansion when enabled
    * (ssRec-ne in the paper is exactly `expand = false`). Each occurrence of
    * an entity contributes 1 to its coefficient, then each of its expansions
    * its weight; the contributions are kept in arrival order in primitive
    * arrays, sorted by `(entity << 32) | arrival index`, and each entity's
    * run is summed from 0 in arrival order.
    */
  def queryOf(itemId: Long, category: Int, producerId: Long, entities: Seq[Int],
              expansion: EntityExpansion, expand: Boolean): ItemQuery = {
    var n = 0
    entities.foreach(e => n += 1 + (if (expand) expansion.of(e).size else 0))
    val keys = new Array[Long](n)
    val weightAt = new Array[Double](n)
    var i = 0
    def add(e: Int, w: Double): Unit = { keys(i) = (e.toLong << 32) | i; weightAt(i) = w; i += 1 }
    entities.foreach { e =>
      add(e, 1.0)
      if (expand) expansion.of(e).foreach { case (x, w) => add(x, w) }
    }
    java.util.Arrays.sort(keys)
    var distinct = 0
    i = 0
    while (i < n) { if (i == 0 || (keys(i) >> 32) != (keys(i - 1) >> 32)) distinct += 1; i += 1 }
    val ids = new Array[Int](distinct)
    val weights = new Array[Double](distinct)
    var d = -1
    i = 0
    while (i < n) {
      val e = (keys(i) >> 32).toInt
      if (d < 0 || ids(d) != e) { d += 1; ids(d) = e }
      weights(d) += weightAt(keys(i).toInt)
      i += 1
    }
    new ItemQuery(itemId, category, producerId, ids, weights)
  }

  /** A query prepared to score many entries (Algorithm 1, a scan): the
    * floors `μ·p_bg(uᵖ)` and `μ·p_bg(e)` of its producer and entities are
    * computed once, into one array, and scoring an entry allocates nothing.
    *
    * `R_ℓ = log p_ℓ + log p̂(uᵖ|u,c) + log Σ_e w_e·p̂(e|u,c)` (Eq. 2) and
    * `R_s = log p_s` (Eq. 4). Probabilities absent from the entry's impact
    * lists fall back to their smoothing floor `μ·p_bg·invTot`; because every
    * stored probability is ≥ its own floor and IEntry components are
    * element-wise maxima, the same formula evaluated on an IEntry upper-bounds
    * every descendant (Lemmas 1–2). The entity sum runs in ascending entity
    * order.
    */
  final class Scorer(q: ItemQuery, prm: RankParams, col: CollectionStats) {
    private val ids = q.entityIds
    private val weights = q.weights
    private val entFloor = {
      val f = new Array[Double](ids.length)
      var i = 0
      while (i < ids.length) { f(i) = prm.mu * col.entityBg(ids(i)); i += 1 }
      f
    }
    private val prodFloor = prm.mu * col.producerBg(q.producerId)

    /** `R_ℓ` of one entry. Each query entity is looked up by a binary search
      * that starts past the previous one's position in the entry's keys.
      */
    def longTerm(s: EntryStats): Double = {
      val at = java.util.Arrays.binarySearch(s.prodKeys, q.producerId)
      val prodP = math.max(if (at >= 0) s.prodVals(at) else 0.0, prodFloor * s.invTot)
      val keys = s.entKeys
      var from = 0
      var entSum = 0.0
      var i = 0
      while (i < ids.length) {
        var p = 0.0
        if (from < keys.length) {
          val j = java.util.Arrays.binarySearch(keys, from, keys.length, ids(i))
          if (j >= 0) { p = s.entVals(j); from = j + 1 } else from = -j - 1
        }
        entSum += weights(i) * math.max(p, entFloor(i) * s.invTot)
        i += 1
      }
      lg(s.pL) + lg(prodP) + lg(entSum)
    }

    /** `R_s` of one entry. */
    def shortTerm(s: EntryStats): Double = lg(s.pS)

    /** Full relevance score of one entry (leaf = a user, internal = upper bound). */
    def score(s: EntryStats): Double = combine(longTerm(s), shortTerm(s), prm.lambdaS)
  }

  private def lg(x: Double): Double = math.log(math.max(x, PFloor))

  /** Eq. 3: `R = (1-λ_s)·R_ℓ + λ_s·R_s`. */
  def combine(rl: Double, rs: Double, lambdaS: Double): Double =
    (1.0 - lambdaS) * rl + lambdaS * rs
}
