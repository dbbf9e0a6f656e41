package repro.index

import org.scalatest.funsuite.AnyFunSuite

class HashingSpec extends AnyFunSuite {

  test("hash values land in [0, buckets)") {
    val strings = (0 until 500).map(i => s"key-$i")
    strings.foreach { s =>
      val h = Hashing.shiftAddXor(s, 64)
      assert(h >= 0 && h < 64, s"hash of $s out of range: $h")
    }
  }

  test("hashing is deterministic") {
    assert(Hashing.shiftAddXor("abc", 1024) == Hashing.shiftAddXor("abc", 1024))
    assert(Hashing.pairHash(3, 17, 128) == Hashing.pairHash(3, 17, 128))
  }

  test("distinct strings spread over buckets roughly uniformly") {
    val buckets = 64
    val n = 6400
    val counts = Array.ofDim[Int](buckets)
    (0 until n).foreach(i => counts(Hashing.shiftAddXor(s"c${i % 19}#e$i", buckets)) += 1)
    val expected = n / buckets
    // Loose uniformity: no bucket more than 3x or less than 1/4 of expected.
    assert(counts.max < expected * 3, s"max bucket ${counts.max}")
    assert(counts.min > expected / 4, s"min bucket ${counts.min}")
  }

  test("pair keys are unique per (category, entity)") {
    val keys = for (c <- 0 until 20; e <- 0 until 50) yield Hashing.pairKey(c, e)
    assert(keys.distinct.size == keys.size)
  }

  test("buckets must be positive") {
    intercept[IllegalArgumentException](Hashing.shiftAddXor("x", 0))
  }

  test("empty string hashes to seed mod buckets") {
    assert(Hashing.shiftAddXor("", 100) == math.floorMod(Hashing.Seed, 100))
  }

  test("pairHash equals shiftAddXor of the pair key") {
    val rnd = new scala.util.Random(5)
    val edges = Seq(0, 1, 9, 10, 99, 100, 12345, Int.MaxValue, -1, -10, Int.MinValue)
    val pairs = (for (c <- edges; e <- edges) yield (c, e)) ++
      Seq.fill(2000)((rnd.nextInt(40), rnd.nextInt()))
    Seq(1, 7, 64, 2048, Int.MaxValue).foreach { buckets =>
      pairs.foreach { case (c, e) =>
        assert(Hashing.pairHash(c, e, buckets) == Hashing.shiftAddXor(Hashing.pairKey(c, e), buckets),
               s"($c, $e) into $buckets buckets")
      }
    }
    intercept[IllegalArgumentException](Hashing.pairHash(1, 2, 0))
  }
}
