package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.Fixtures
import scala.util.Random

class RankingSpec extends AnyFunSuite {
  import Fixtures._

  private val exp = EntityExpansion(Map(
    1 -> Seq((10, 0.7), (11, 0.5)),
    2 -> Seq((10, 0.9)),
  ))

  test("queryOf without expansion counts entity frequencies") {
    val q = Ranking.queryOf(1L, 0, 2L, Seq(1, 2, 2, 3), Entities.none, expand = false)
    assert(q.entityWeights.toMap == Map(1 -> 1.0, 2 -> 2.0, 3 -> 1.0))
  }

  test("queryOf with expansion adds weighted expansion entities") {
    val q = Ranking.queryOf(1L, 0, 2L, Seq(1), exp, expand = true)
    assert(q.entityWeights.toMap == Map(1 -> 1.0, 10 -> 0.7, 11 -> 0.5))
  }

  test("queryOf accumulates expansion weights across occurrences (Example 1)") {
    // Entity 1 and 2 both expand into 10: coefficients add up.
    val q = Ranking.queryOf(1L, 0, 2L, Seq(1, 2, 2), exp, expand = true)
    val m = q.entityWeights.toMap
    assert(math.abs(m(10) - (0.7 + 2 * 0.9)) < 1e-12)
    assert(m(1) == 1.0 && m(2) == 2.0 && math.abs(m(11) - 0.5) < 1e-12)
  }

  test("queryOf with expand=false ignores a non-empty expansion table (ssRec-ne)") {
    val q = Ranking.queryOf(1L, 0, 2L, Seq(1, 2), exp, expand = false)
    assert(q.entityWeights.toMap == Map(1 -> 1.0, 2 -> 1.0))
  }

  test("combine is the Eq.-3 convex combination") {
    assert(Ranking.combine(-2.0, -6.0, 0.0) == -2.0)
    assert(Ranking.combine(-2.0, -6.0, 1.0) == -6.0)
    assert(math.abs(Ranking.combine(-2.0, -6.0, 0.25) - (-3.0)) < 1e-12)
  }

  test("score equals combine of components") {
    val rnd = new Random(1)
    (1 to 30).foreach { _ =>
      val s = randStats(rnd); val q = randQuery(rnd)
      val (rl, rs) = Ranking.components(s, q, params, collection)
      assert(Ranking.score(s, q, params, collection) == Ranking.combine(rl, rs, params.lambdaS))
    }
  }

  test("components match the hand-computed Eq. 2 on crafted stats") {
    val s = EntryStats(pL = 0.5, pS = 0.25, invTot = 0.1,
                       prod = Map(3L -> 0.4), ent = Map(7 -> 0.2, 8 -> 0.3))
    val q = ItemQuery(1L, 0, 3L, Seq((7, 1.0), (8, 2.0)))
    val (rl, rs) = Ranking.components(s, q, params, collection)
    val entSum = 1.0 * 0.2 + 2.0 * 0.3
    assert(math.abs(rl - (math.log(0.5) + math.log(0.4) + math.log(entSum))) < 1e-12)
    assert(math.abs(rs - math.log(0.25)) < 1e-12)
  }

  test("absent producer falls back to its smoothing floor") {
    val s = EntryStats(0.5, 0.5, 0.1, Map.empty, Map(7 -> 0.2))
    val q = ItemQuery(1L, 0, 99L, Seq((7, 1.0)))
    val (rl, _) = Ranking.components(s, q, params, collection)
    val floor = params.mu * collection.producerBg(99L) * 0.1
    assert(math.abs(rl - (math.log(0.5) + math.log(floor) + math.log(0.2))) < 1e-12)
  }

  test("absent entities fall back to their smoothing floors") {
    val s = EntryStats(0.5, 0.5, 0.1, Map(3L -> 0.4), Map.empty)
    val q = ItemQuery(1L, 0, 3L, Seq((7, 1.0), (8, 0.5)))
    val (rl, _) = Ranking.components(s, q, params, collection)
    val f7 = params.mu * collection.entityBg(7) * 0.1
    val f8 = params.mu * collection.entityBg(8) * 0.1
    assert(math.abs(rl - (math.log(0.5) + math.log(0.4) + math.log(f7 + 0.5 * f8))) < 1e-12)
  }

  test("score is monotone in matching-entity probability") {
    val q = ItemQuery(1L, 0, 3L, Seq((7, 1.0)))
    val lo = EntryStats(0.5, 0.5, 0.1, Map(3L -> 0.4), Map(7 -> 0.1))
    val hi = EntryStats(0.5, 0.5, 0.1, Map(3L -> 0.4), Map(7 -> 0.6))
    assert(Ranking.score(hi, q, params, collection) > Ranking.score(lo, q, params, collection))
  }

  test("score is monotone in the BiHMM category probability") {
    val rnd = new Random(2)
    val q = randQuery(rnd)
    val s = randStats(rnd)
    val better = EntryStats(math.min(1.0, s.pL * 1.5), math.min(1.0, s.pS * 1.5), s.invTot, s.prod, s.ent)
    assert(Ranking.score(better, q, params, collection) > Ranking.score(s, q, params, collection))
  }

  test("score never produces NaN or +Inf, even on degenerate stats") {
    val s = EntryStats(0.0, 0.0, 0.0, Map.empty, Map.empty)
    val q = ItemQuery(1L, 0, 3L, Seq.empty)
    val v = Ranking.score(s, q, params, collection)
    assert(!v.isNaN && v < 0)
  }

  test("lambda bounds are validated") {
    intercept[IllegalArgumentException](RankParams(lambdaS = -0.1))
    intercept[IllegalArgumentException](RankParams(lambdaS = 1.1))
    intercept[IllegalArgumentException](RankParams(mu = 0.0))
  }

  test("topK keeps the lower userIds among equal scores straddling rank k") {
    val scored = Seq(9L -> -1.0, 4L -> -2.0, 7L -> -1.0, 2L -> -3.0, 5L -> -1.0, 1L -> -0.5)
    assert(Ranking.topK(scored, 3) == Seq(1L -> -0.5, 5L -> -1.0, 7L -> -1.0))
    val rnd = new Random(4)
    (1 to 50).foreach { _ =>
      val many = rnd.shuffle((0L until 40L).map(u => u -> (-rnd.nextInt(4)).toDouble))
      val k = 1 + rnd.nextInt(45)
      assert(Ranking.topK(many, k) == many.sortBy { case (u, s) => (-s, u) }.take(k))
    }
  }

  test("merged stats never score below either operand (bound used by Alg. 1)") {
    val rnd = new Random(3)
    (1 to 50).foreach { _ =>
      val a = randStats(rnd); val b = randStats(rnd); val q = randQuery(rnd)
      val m = a.merge(b)
      val sm = Ranking.score(m, q, params, collection)
      assert(sm >= Ranking.score(a, q, params, collection) - 1e-9)
      assert(sm >= Ranking.score(b, q, params, collection) - 1e-9)
    }
  }

  test("the prepared scorer equals the Map-based reference bit for bit") {
    val rnd = new Random(21)
    // Cases the random inputs must cover, counted over all draws.
    var absentKey, emptyQuery, emptyEntry, unknownProducer, pastLastKey = 0
    (1 to 3000).foreach { i =>
      val s = randStats(rnd, minKeys = 0)
      val q = ItemQuery(rnd.nextLong(100000), 0, rnd.nextLong(NProd + 3L),
        Seq.fill(rnd.nextInt(7))(rnd.nextInt(NEnt + 10) -> (rnd.nextDouble() * 0.9 + 0.1)).distinctBy(_._1))
      val want = refComponents(s, q, params, collection)
      val sc = new Ranking.Scorer(q, params, collection)
      assert((sc.longTerm(s), sc.shortTerm(s)) == want, s"case $i: $s")
      assert(Ranking.components(s, q, params, collection) == want, s"case $i")
      assert(sc.score(s) == Ranking.combine(want._1, want._2, params.lambdaS), s"case $i")
      assert(Ranking.score(s, q, params, collection) == sc.score(s), s"case $i")
      if (q.entityIds.exists(e => !s.ent.contains(e)) || !s.prod.contains(q.producerId)) absentKey += 1
      if (q.entityIds.isEmpty) emptyQuery += 1
      if (s.entKeys.isEmpty || s.prodKeys.isEmpty) emptyEntry += 1
      if (!collection.bgProd.contains(q.producerId)) unknownProducer += 1
      if (s.entKeys.nonEmpty && q.entityIds.exists(_ > s.entKeys.last)) pastLastKey += 1
    }
    Seq(absentKey, emptyQuery, emptyEntry, unknownProducer, pastLastKey).foreach(n => assert(n > 0))
  }

  test("queryOf emits ascending entity ids with their weights") {
    val q = Ranking.queryOf(1L, 0, 2L, Seq(3, 1, 2, 1), exp, expand = true)
    assert(q.entityIds.toSeq == Seq(1, 2, 3, 10, 11))
    assert(q.entityWeights == q.entityIds.toSeq.zip(q.weights))
    intercept[IllegalArgumentException](ItemQuery(1L, 0, 2L, Seq(4 -> 1.0, 4 -> 2.0)))
  }

  test("TopK equals a full sort on random streams with many ties, for every k") {
    val rnd = new Random(31)
    (1 to 200).foreach { i =>
      val n = rnd.nextInt(40)
      // Few distinct scores (-0.0 and 0.0 among them) and repeated ids.
      val stream = Seq.fill(n)(rnd.nextLong(n + 5L) -> Seq(0.0, -0.0, -1.0, -2.5, 3.0)(rnd.nextInt(5)))
      val want = stream.sortBy { case (u, s) => (-s, u) }
      (0 to n + 2).foreach { k =>
        assert(Ranking.topK(stream, k) == want.take(k), s"case $i, k = $k")
        val top = new Ranking.TopK(k)
        stream.foreach { case (u, s) => top.offer(u, s) }
        val kth = if (k >= 1 && n >= k) want(k - 1)._2 else Double.NegativeInfinity
        assert(java.lang.Double.compare(top.kthScore, kth) == 0, s"case $i, k = $k")
        assert(top.drain() == want.take(k), s"case $i, k = $k")
      }
    }
  }

  test("TopK keeps nothing for k = 0 or an empty stream") {
    val none = new Ranking.TopK(0)
    none.offer(1L, 2.0)
    assert(none.kthScore == Double.NegativeInfinity && none.drain().isEmpty)
    val empty = new Ranking.TopK(5)
    assert(empty.kthScore == Double.NegativeInfinity && empty.drain().isEmpty)
    assert(Ranking.topK(Seq(1L -> 2.0, 3L -> 4.0), 0).isEmpty)
    assert(Ranking.topK(Seq.empty, 3).isEmpty)
  }

  test("queryOf equals the Map-based build bit for bit") {
    val rnd = new Random(32)
    var overlaps = 0
    (1 to 500).foreach { i =>
      // A small vocabulary, so entities repeat and expansions overlap the
      // item's own entities and each other.
      val vocab = IndexedSeq(0, 1, 2, 3, 5, 8, 13, 127, 128, 40000, Int.MaxValue)
      val table = EntityExpansion(vocab.map { e =>
        e -> Seq.fill(rnd.nextInt(4))(vocab(rnd.nextInt(vocab.size)) -> rnd.nextDouble())
      }.toMap)
      val entities = Seq.fill(rnd.nextInt(9))(vocab(rnd.nextInt(vocab.size)))
      Seq(true, false).foreach { expand =>
        val got = Ranking.queryOf(7L, 2, 3L, entities, table, expand)
        val want = refQueryOf(7L, 2, 3L, entities, table, expand)
        assert(got.entityIds.toSeq == want.entityIds.toSeq, s"case $i, expand = $expand")
        got.weights.zip(want.weights).foreach { case (a, b) =>
          assert(java.lang.Double.compare(a, b) == 0, s"case $i, expand = $expand: $a != $b")
        }
        assert((got.itemId, got.category, got.producerId) == (7L, 2, 3L))
      }
      val contributed = entities ++ entities.flatMap(table.of(_).map(_._1))
      if (contributed.distinct.size < contributed.size) overlaps += 1
    }
    assert(overlaps > 100, s"$overlaps cases sum more than one contribution per entity")
  }
}
