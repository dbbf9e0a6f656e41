package repro.eval

import repro.SparkSpec
import repro.socialdata.{Interaction, Item, SocialData}

class ProtocolSpec extends SparkSpec {
  private val cfg = SocialData.tiny
  private lazy val interactions = SocialData.interactions(spark, cfg).collect().toSeq

  private def mk(u: Long, v: Long, ts: Long, c: Int = 0): Interaction =
    Interaction(u, v, ts, c, 0L, Seq(1), 0)

  test("split yields n partitions with even sizes") {
    val parts = Protocol.split(interactions, 6)
    assert(parts.length == 6)
    val sizes = parts.map(_.length)
    assert(sizes.max - sizes.min <= 1)
    assert(sizes.sum == interactions.size)
  }

  test("split preserves global timestamp order across partitions") {
    val parts = Protocol.split(interactions, 6)
    (0 until 5).foreach { i =>
      assert(parts(i).last.ts <= parts(i + 1).head.ts, s"partition $i overlaps $i+1")
    }
  }

  test("split of a tiny hand-made stream") {
    val xs = (1L to 7L).map(i => mk(i, i, ts = 100 - i)) // reversed input order
    val parts = Protocol.split(xs, 3)
    assert(parts.map(_.length).toSeq == Seq(3, 2, 2))
    assert(parts.flatten.map(_.ts).toSeq == parts.flatten.map(_.ts).sorted.toSeq)
  }

  test("itemStream deduplicates items in first-appearance order") {
    val part = Array(mk(1, 10, 1), mk(2, 11, 2), mk(3, 10, 3), mk(4, 12, 4))
    val s = Protocol.itemStream(part)
    assert(s.map(_.itemId).toSeq == Seq(10, 11, 12))
  }

  test("itemStream scrubs the planted producer state") {
    val s = Protocol.itemStream(Protocol.split(interactions, 6)(2))
    assert(s.forall(_.zPlanted == -1))
  }

  test("truthOf maps each item to its interacting users") {
    val part = Array(mk(1, 10, 1), mk(2, 10, 2), mk(3, 11, 3))
    val t = Protocol.truthOf(part)
    assert(t(10L) == Set(1L, 2L) && t(11L) == Set(3L))
  }

  test("PrecisionAtK arithmetic") {
    val acc = Protocol.PrecisionAtK(Seq(1, 2))
    acc.record(Seq(1L, 2L), truth = Set(1L))      // hit at rank 1
    acc.record(Seq(3L, 4L), truth = Set(4L))      // hit at rank 2 only
    assert(acc.itemCount == 2)
    assert(acc.value(1) == 0.5)       // 1 hit / (2 items * 1)
    assert(acc.value(2) == 0.5)       // 2 hits / (2 items * 2)
  }

  test("PrecisionAtK of an empty run is zero") {
    assert(Protocol.PrecisionAtK(Seq(5)).value(5) == 0.0)
  }

  test("evaluate: an oracle recommender scores the ceiling") {
    // Two training + two test partitions; the oracle recommends exactly the
    // interacting user of each item (1 distinct user per item here).
    val parts = IndexedSeq(
      Array(mk(1, 1, 1)), Array(mk(1, 2, 2)),
      Array(mk(1, 100, 3), mk(2, 101, 4)),
      Array(mk(3, 102, 5), mk(4, 103, 6)))
    val truthAll = parts.flatten.groupBy(_.itemId).view.mapValues(_.map(_.userId).toSeq).toMap
    val oracle = new Protocol.StreamRecommender {
      def name = "oracle"
      def recommend(item: Item, k: Int): Seq[Long] =
        truthAll(item.itemId) ++ (900L until (900L + k - 1))
      def observe(batch: Seq[Interaction]): Unit = ()
    }
    val p = Protocol.evaluate(parts, oracle, ks = Seq(1, 2))
    assert(p(1) == 1.0)
    assert(p(2) == 0.5) // 1 relevant user per item, k = 2
  }

  test("evaluate: a never-right recommender scores zero") {
    val parts = Protocol.split(interactions.take(600), 6)
    val never = new Protocol.StreamRecommender {
      def name = "never"
      def recommend(item: Item, k: Int): Seq[Long] = (100000L until (100000L + k))
      def observe(batch: Seq[Interaction]): Unit = ()
    }
    assert(Protocol.evaluate(parts, never, Seq(5)).apply(5) == 0.0)
  }

  test("evaluate feeds every tested interaction back, before later arrivals") {
    val parts = Protocol.split(interactions.take(600), 6)
    var observed = 0L
    var lastObservedTs = Long.MinValue
    val spy = new Protocol.StreamRecommender {
      def name = "spy"
      def recommend(item: Item, k: Int): Seq[Long] = {
        // Stream order: everything already observed arrived before this item.
        assert(lastObservedTs < item.ts, "observed an interaction from the future")
        Seq.empty
      }
      def observe(batch: Seq[Interaction]): Unit = {
        observed += batch.size
        lastObservedTs = math.max(lastObservedTs, batch.map(_.ts).max)
      }
    }
    Protocol.evaluate(parts, spy, Seq(1))
    assert(observed == (2 until 6).map(parts(_).length).sum)
  }

  test("evaluate with update=false never calls observe") {
    val parts = Protocol.split(interactions.take(600), 6)
    var called = false
    val spy = new Protocol.StreamRecommender {
      def name = "spy"
      def recommend(item: Item, k: Int): Seq[Long] = Seq.empty
      def observe(batch: Seq[Interaction]): Unit = { called = true }
    }
    Protocol.evaluate(parts, spy, Seq(1), update = false)
    assert(!called)
  }

  test("split validates the partition count") {
    intercept[IllegalArgumentException](Protocol.split(interactions, 1))
  }
}
