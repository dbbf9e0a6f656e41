package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.hmm.IoHmm
import repro.testutil.Fixtures
import scala.util.Random

class ProfilesSpec extends AnyFunSuite {
  import Fixtures._

  private def empty(cap: Int = 3): UserProfile = UserProfile(
    1L, NCats, cap, Vector.empty, Array.ofDim[Double](NCats), Map.empty, Map.empty,
    Vector.empty, 200, IoHmm.random(2, NZ, NCats, 1),
    Array.fill(NCats)(1.0 / NCats), Array.fill(NCats)(1.0 / NCats), Array.empty)

  private def ev(c: Int, p: Long = 0L, ents: Seq[Int] = Seq(1), z: Int = 0) =
    CompactEvent(c, p, ents, z)

  test("ingest fills the window until the cap") {
    val p = Seq(ev(0), ev(1), ev(2)).foldLeft(empty(3))(Profiles.ingest)
    assert(p.window.size == 3)
    assert(p.totalLong == 0.0, "nothing flushed yet")
  }

  test("ingest flushes a full window into the long-term list") {
    val p = Seq(ev(0), ev(1), ev(2), ev(3)).foldLeft(empty(3))(Profiles.ingest)
    assert(p.window.map(_.category) == Vector(3), "window restarts with the new event")
    assert(p.totalLong == 3.0)
    assert(p.catCount(0) == 1.0 && p.catCount(1) == 1.0 && p.catCount(2) == 1.0)
  }

  test("flush moves producer and entity counts per category") {
    val events = Seq(ev(0, 7L, Seq(4, 5)), ev(0, 7L, Seq(4)), ev(1, 8L, Seq(9)), ev(2))
    val p = events.foldLeft(empty(3))(Profiles.ingest)
    assert(p.prodCount(0)(7L) == 2.0)
    assert(p.entCount(0)(4) == 2.0 && p.entCount(0)(5) == 1.0)
    assert(p.prodCount(1)(8L) == 1.0 && p.entCount(1)(9) == 1.0)
  }

  test("flush appends the (z, category) pairs to the long sequence in order") {
    val events = Seq(ev(0, z = 1), ev(1, z = 0), ev(2, z = 1), ev(3))
    val p = events.foldLeft(empty(3))(Profiles.ingest)
    assert(p.longSeq == Vector((1, 0), (0, 1), (1, 2)))
  }

  test("long sequence respects its cap") {
    val p0 = empty(2).copy(longSeqCap = 4)
    val p = (0 until 20).map(i => ev(i % NCats)).foldLeft(p0)(Profiles.ingest)
    assert(p.longSeq.size <= 4)
  }

  test("no events are lost across ingests") {
    val rnd = new Random(1)
    val events = randEvents(rnd, 57)
    val p = events.foldLeft(empty(5))(Profiles.ingest)
    assert(p.totalLong + p.window.size == 57.0)
  }

  test("build equals fold of ingest plus one refresh") {
    val rnd = new Random(2)
    val events = randEvents(rnd, 23)
    val model = IoHmm.random(2, NZ, NCats, 5)
    val built = Profiles.build(9L, events, model, NCats, 5)
    val manual = Profiles.refreshPredictions(
      events.foldLeft(empty(5).copy(userId = 9L, model = model, longSeqCap = 200))(Profiles.ingest))
    assert(built.catCount.toSeq == manual.catCount.toSeq)
    assert(built.window == manual.window)
    assert(built.pLong.toSeq == manual.pLong.toSeq)
    assert(built.pShort.toSeq == manual.pShort.toSeq)
  }

  test("refreshPredictions yields distributions") {
    val rnd = new Random(3)
    val p = Profiles.build(2L, randEvents(rnd, 31), IoHmm.random(3, NZ, NCats, 2), NCats, 5)
    assert(math.abs(p.pLong.sum - 1.0) < 1e-9)
    assert(math.abs(p.pShort.sum - 1.0) < 1e-9)
    assert(p.pLong.forall(_ >= 0) && p.pShort.forall(_ >= 0))
  }

  test("empty-window profile falls back to the long-term prediction for pShort") {
    val rnd = new Random(4)
    // Exactly 2*cap events with cap 2: the window flushes and then refills; craft
    // a profile whose window was explicitly emptied instead.
    val p0 = Profiles.build(3L, randEvents(rnd, 12), IoHmm.random(2, NZ, NCats, 3), NCats, 3)
    val refreshed = Profiles.refreshPredictions(p0.copy(window = Vector.empty))
    assert(refreshed.pShort.toSeq == refreshed.pLong.toSeq)
  }

  test("categoryVector is uniform for a fresh user and normalized otherwise") {
    assert(empty().categoryVector.forall(v => math.abs(v - 1.0 / NCats) < 1e-12))
    val p = Seq(ev(0), ev(0), ev(1), ev(2)).foldLeft(empty(3))(Profiles.ingest)
    assert(math.abs(p.categoryVector.sum - 1.0) < 1e-12)
  }

  test("producers and entities enumerate the long-term vocabulary") {
    val events = Seq(ev(0, 7L, Seq(4, 5)), ev(1, 8L, Seq(6)), ev(2, 9L, Seq(7)), ev(3))
    val p = events.foldLeft(empty(3))(Profiles.ingest)
    // The full window (first three events) is flushed; the fourth stays short-term.
    assert(p.producers == Set(7L, 8L, 9L))
    assert(p.entities == Set(4, 5, 6, 7))
  }

  test("entryStats: smoothed probabilities are in (0, 1)") {
    val rnd = new Random(5)
    val p = Profiles.build(4L, randEvents(rnd, 40), IoHmm.random(2, NZ, NCats, 4), NCats, 5)
    (0 until NCats).foreach { c =>
      val s = Profiles.entryStats(p, c, 5.0, collection)
      (s.prod.values ++ s.ent.values).foreach(v => assert(v > 0 && v < 1, s"bad prob $v"))
      assert(s.invTot > 0 && s.invTot <= 1.0 / 5.0)
    }
  }

  test("entryStats: Dirichlet smoothing matches the closed form") {
    val events = Seq(ev(0, 7L, Seq(4)), ev(0, 7L, Seq(4)), ev(0, 8L, Seq(5)), ev(1))
    val p = events.foldLeft(empty(3))(Profiles.ingest)
    val mu = 5.0
    val s = Profiles.entryStats(p, 0, mu, collection)
    val tot = 3.0
    val expected = (2.0 + mu * collection.producerBg(7L)) / (tot + mu)
    assert(math.abs(s.prod(7L) - expected) < 1e-12)
    val expectedEnt = (2.0 + mu * collection.entityBg(4)) / (tot + mu)
    assert(math.abs(s.ent(4) - expectedEnt) < 1e-12)
  }

  test("entryStats of an inactive category carries only the smoothing floor") {
    val p = Seq(ev(0), ev(0), ev(0), ev(0)).foldLeft(empty(3))(Profiles.ingest)
    val s = Profiles.entryStats(p, 5, 5.0, collection)
    assert(s.prod.isEmpty && s.ent.isEmpty)
    assert(math.abs(s.invTot - 1.0 / 5.0) < 1e-12)
  }

  test("entryStats: separate builds of one profile are equal, hashCode too, and equal the Map-based reference") {
    val rnd = new Random(6)
    val events = randEvents(rnd, 40)
    def build() = Profiles.build(6L, events, IoHmm.random(2, NZ, NCats, 6), NCats, 5)
    val (p, q) = (build(), build())
    (0 until NCats).foreach { c =>
      val a = Profiles.entryStats(p, c, 5.0, collection)
      val b = Profiles.entryStats(q, c, 5.0, collection)
      assert((a ne b) && (a.entKeys ne b.entKeys))
      assert(a == b && a.hashCode == b.hashCode, s"category $c")
      assert(a == refEntryStats(p, c, 5.0, collection), s"category $c")
      assert(a != Profiles.entryStats(p, c, 6.0, collection))
    }
  }

  test("collection backgrounds default for unknown ids") {
    assert(collection.producerBg(12345L) == 1.0 / NProd)
    assert(collection.entityBg(98765) == 1.0 / NEnt)
    // Bit for bit the map with its default, on every known id, unknown ids
    // on either side of them, and an empty collection.
    val rnd = new Random(8)
    val col = CollectionStats(Seq.fill(60)(rnd.nextLong(2000L) - 1000L).map(_ -> rnd.nextDouble()).toMap,
                              Seq.fill(60)(rnd.nextInt(2000) - 1000).map(_ -> rnd.nextDouble()).toMap, 77L, 0L)
    val prods = col.bgProd.keys.toSeq ++ Seq(Long.MinValue, -1001L, 0L, 1001L, Long.MaxValue)
    val ents = col.bgEnt.keys.toSeq ++ Seq(Int.MinValue, -1001, 0, 1001, Int.MaxValue)
    // A serialized copy, taken after the lookup arrays were built, rebuilds them.
    col.producerBg(0L); col.entityBg(0)
    val bytes = new java.io.ByteArrayOutputStream
    new java.io.ObjectOutputStream(bytes).writeObject(col)
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[CollectionStats]
    Seq(col, copy).foreach { c =>
      prods.foreach(p => assert(c.producerBg(p) == col.bgProd.getOrElse(p, 1.0 / 77), s"producer $p"))
      ents.foreach(e => assert(c.entityBg(e) == col.bgEnt.getOrElse(e, 1.0), s"entity $e"))
    }
    val empty = CollectionStats(Map.empty, Map.empty, 0L, 0L)
    assert(empty.producerBg(3L) == 1.0 && empty.entityBg(3) == 1.0)
  }

  test("refreshAfter equals refreshPredictions, reusing pLong when no window flushed") {
    val rnd = new Random(6)
    var p = Profiles.build(5L, randEvents(rnd, 23), IoHmm.random(2, NZ, NCats, 5), NCats, 5)
    var reused = 0
    (1 to 40).foreach { i =>
      val ingested = randEvents(rnd, rnd.nextInt(6) + 1).foldLeft(p)(Profiles.ingest)
      val got = Profiles.refreshAfter(p, ingested)
      val want = Profiles.refreshPredictions(ingested)
      assert(got.pLong.toSeq == want.pLong.toSeq && got.pShort.toSeq == want.pShort.toSeq, s"batch $i")
      assert(got.zLong.map(_.toSeq).toSeq == want.zLong.map(_.toSeq).toSeq, s"batch $i")
      assert(got.window == want.window && got.longSeq == want.longSeq)
      if (ingested.longSeq eq p.longSeq) { assert(got.pLong eq p.pLong); reused += 1 }
      p = got
    }
    assert(reused > 0 && reused < 40, s"$reused of 40 batches flushed no window")
  }

  test("entryStatsAfter equals entryStats, sharing the old arrays exactly where no flush fed the category") {
    val rnd = new Random(7)
    var p = Profiles.build(6L, randEvents(rnd, 23), IoHmm.random(2, NZ, NCats, 6), NCats, 5)
    var prev = (0 until NCats).map(c => Profiles.entryStats(p, c, params.mu, collection))
    var kept, rebuilt = 0
    (1 to 40).foreach { i =>
      val next = Profiles.refreshAfter(p, randEvents(rnd, rnd.nextInt(6) + 1).foldLeft(p)(Profiles.ingest))
      val got = (0 until NCats).map(c => Profiles.entryStatsAfter(p, prev(c), next, c, params.mu, collection))
      got.indices.foreach { c =>
        assert(got(c) == Profiles.entryStats(next, c, params.mu, collection), s"batch $i, category $c")
        val fed = next.catCount(c) != p.catCount(c)
        assert(sharesArrays(got(c), prev(c)) == !fed, s"batch $i, category $c")
        if (fed) rebuilt += 1 else kept += 1
      }
      p = next; prev = got
    }
    assert(kept > 0 && rebuilt > 0, s"$kept kept, $rebuilt rebuilt")
  }
}
