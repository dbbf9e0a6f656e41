package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.hmm.IoHmm
import repro.testutil.Fixtures
import scala.util.Random

class CppseIndexSpec extends AnyFunSuite {
  import Fixtures._

  private def makeIndex(nUsers: Int, maxBlocks: Int, seed: Long): CppseIndex = {
    val rnd = new Random(seed)
    val profiles = (0L until nUsers.toLong).map(u => randProfile(u, rnd))
    new CppseIndex(256, 4, params, collection, NCats).build(profiles, maxBlocks)
  }

  private def makeProfileFor(userId: Long, events: Seq[CompactEvent]): UserProfile =
    Profiles.build(userId, events, IoHmm.random(2, NZ, NCats, seed = userId), NCats, 5)

  test("build indexes every profile") {
    val idx = makeIndex(40, 4, 1)
    assert(idx.profiles.size == 40)
    (0L until 40L).foreach(u => assert(idx.blockOf(u).isDefined))
  }

  test("blocks stay within the budget") {
    (1 to 6).foreach { mb =>
      val idx = makeIndex(30, mb, 2)
      assert(idx.numBlocks <= mb && idx.numBlocks >= 1)
    }
  }

  test("each category has one tree per block, holding all block users") {
    val idx = makeIndex(25, 3, 3)
    (0 until NCats).foreach { c =>
      val trees = idx.treesOfCategory(c)
      assert(trees.size == idx.numBlocks)
      assert(trees.map(_.size).sum == 25, s"category $c covers all users")
    }
  }

  test("exact topK equals the sequential scan") {
    val rnd = new Random(4)
    val idx = makeIndex(60, 5, 4)
    (1 to 30).foreach { i =>
      val q = randQuery(rnd)
      val k = rnd.nextInt(12) + 1
      val got = idx.topK(q, k, exact = true)
      val want = idx.scanTopK(q, k)
      assert(got == want, s"case $i: index=$got scan=$want")
    }
  }

  test("exact topK breaks score ties by userId, like the scan") {
    val rnd = new Random(17)
    // Every fourth user is the same profile: identical statistics, so equal
    // scores, interleaved by id with distinct users.
    val twinEvents = randEvents(rnd, 30)
    val twinModel = IoHmm.random(2, NZ, NCats, seed = 1)
    val twins = (0L until 48L by 4).map(u => Profiles.build(u, twinEvents, twinModel, NCats, 5))
    val others = (0L until 48L).filter(_ % 4 != 0).map(u => randProfile(u, rnd))
    val idx = new CppseIndex(256, 2, params, collection, NCats).build(twins ++ others, 4)
    val twinIds = twins.map(_.userId).toSet
    (1 to 20).foreach { i =>
      val q = randQuery(rnd)
      val all = idx.scanTopK(q, idx.profiles.size)
      // Cut the ranking half-way through the block of tied twins.
      val k = all.indexWhere(r => twinIds(r._1)) + twins.size / 2
      assert(twinIds(all(k - 1)._1) && twinIds(all(k)._1) && all(k - 1)._2 == all(k)._2)
      val got = idx.topK(q, k, exact = true)
      assert(got.map(_._1) == all.take(k).map(_._1), s"case $i: index=$got")
      assert(got == idx.scanTopK(q, k))
    }
  }

  test("SearchStats: exact mode locates every tree of the category, fast mode the hashed ones") {
    val rnd = new Random(22)
    val idx = makeIndex(60, 5, 22)
    (1 to 20).foreach { i =>
      val q = randQuery(rnd)
      val inExact, inFast = new SearchStats
      idx.topK(q, 5, exact = true, inExact)
      idx.topK(q, 5, exact = false, inFast)
      assert(inExact.treesLocated == idx.treesOfCategory(q.category).size, s"case $i")
      assert(inFast.treesLocated == idx.locateTrees(q).size, s"case $i")
      assert(inExact.leavesReached >= 5, s"case $i")
    }
  }

  test("topK scores are sorted descending") {
    val rnd = new Random(5)
    val idx = makeIndex(50, 4, 5)
    (1 to 10).foreach { _ =>
      val scores = idx.topK(randQuery(rnd), 10, exact = true).map(_._2)
      assert(scores == scores.sorted(Ordering[Double].reverse))
    }
  }

  test("fast mode returns a subset of users with high overlap on entity-rich queries") {
    val rnd = new Random(6)
    val idx = makeIndex(80, 4, 6)
    var overlap = 0; var total = 0
    (1 to 30).foreach { _ =>
      val q = randQuery(rnd)
      val fast = idx.topK(q, 10).map(_._1).toSet
      val exact = idx.topK(q, 10, exact = true).map(_._1).toSet
      assert(fast.subsetOf(idx.profiles.keySet))
      overlap += (fast & exact).size
      total += exact.size
    }
    // The hash filter skips blocks sharing no (category, entity) pair — recall
    // need not be 1.0, but must be substantial on this vocabulary.
    assert(overlap.toDouble / total > 0.5, s"recall ${overlap.toDouble / total}")
  }

  test("locateTrees only returns trees of the query category") {
    val rnd = new Random(7)
    val idx = makeIndex(40, 4, 7)
    (1 to 20).foreach { _ =>
      val q = randQuery(rnd)
      idx.locateTrees(q).foreach(t => assert(t.category == q.category))
    }
  }

  test("topK with k exceeding the population returns everyone (exact mode)") {
    val idx = makeIndex(12, 2, 8)
    assert(idx.topK(randQuery(new Random(8)), 100, exact = true).size == 12)
  }

  test("applyUpdates: existing user statistics change") {
    val rnd = new Random(9)
    val idx = makeIndex(20, 2, 9)
    val before = idx.profiles(3L).totalLong + idx.profiles(3L).window.size
    // Enough events to force at least one window flush.
    val report = idx.applyUpdates(Seq((3L, randEvents(rnd, 12))), makeProfileFor)
    assert(report.updatedUsers == 1 && report.newUsers == 0)
    val p = idx.profiles(3L)
    assert(p.totalLong + p.window.size == before + 12)
  }

  test("applyUpdates: trees reflect the updated leaf") {
    val rnd = new Random(10)
    val idx = makeIndex(20, 2, 10)
    idx.applyUpdates(Seq((5L, randEvents(rnd, 15))), makeProfileFor)
    val b = idx.blockOf(5L).get
    (0 until NCats).foreach { c =>
      val leaf = idx.tree(TreeRef(b, c)).get.leafOf(5L).get
      val expect = Profiles.entryStats(idx.profiles(5L), c, params.mu, collection)
      assert(leaf.stats == expect, s"category $c stale")
    }
  }

  test("applyUpdates: new users are inserted into every category tree of a block") {
    val rnd = new Random(11)
    val idx = makeIndex(20, 3, 11)
    val report = idx.applyUpdates(Seq((999L, randEvents(rnd, 10))), makeProfileFor)
    assert(report.newUsers == 1)
    val b = idx.blockOf(999L).get
    (0 until NCats).foreach(c => assert(idx.tree(TreeRef(b, c)).get.leafOf(999L).isDefined))
    assert(idx.profiles.contains(999L))
  }

  test("applyUpdates: exact topK still equals scan afterwards") {
    val rnd = new Random(12)
    val idx = makeIndex(40, 4, 12)
    val ups = (0L until 10L).map(u => (u, randEvents(rnd, 14))) ++
      Seq((500L, randEvents(rnd, 8)), (501L, randEvents(rnd, 8)))
    idx.applyUpdates(ups, makeProfileFor)
    (1 to 20).foreach { _ =>
      val q = randQuery(rnd)
      assert(idx.topK(q, 8, exact = true) == idx.scanTopK(q, 8))
    }
  }

  test("applyUpdates reports new hash triads for unseen category-entity pairs") {
    val idx = makeIndex(10, 2, 13)
    // An event with an entity id far outside the fixture vocabulary.
    val weird = Seq.fill(6)(CompactEvent(0, 1L, Seq(95), 0))
    val report = idx.applyUpdates(Seq((0L, weird)), makeProfileFor)
    assert(report.newHashTriads >= 1)
  }

  test("k must be positive") {
    val idx = makeIndex(5, 1, 14)
    intercept[IllegalArgumentException](idx.topK(randQuery(new Random(14)), 0))
  }

  test("block statistics cover the Table-II quantities") {
    val idx = makeIndex(30, 3, 15)
    (0 until idx.numBlocks).foreach { b =>
      assert(idx.blockEntityCount(b) >= 0 && idx.blockEntityCount(b) <= NEnt)
      assert(idx.blockProducerCount(b) >= 0 && idx.blockProducerCount(b) <= NProd)
    }
  }

  test("fewer blocks means larger per-block vocabularies (Table-II shape)") {
    val one = makeIndex(60, 1, 16)
    val many = makeIndex(60, 8, 16)
    val maxOne = (0 until one.numBlocks).map(one.blockEntityCount).max
    val maxMany = (0 until many.numBlocks).map(many.blockEntityCount).max
    assert(maxOne >= maxMany)
  }

  /** Every tree of the index: leaves equal the stored profiles' entry
    * statistics, IEntries equal the max of their children.
    */
  private def assertExactTrees(idx: CppseIndex, what: String): Unit =
    (0 until NCats).foreach { c =>
      idx.treesOfCategory(c).foreach { t =>
        t.leaves.foreach { case (u, s) =>
          assert(s == Profiles.entryStats(idx.profiles(u), c, params.mu, collection), s"$what: leaf $u")
        }
        t.root.foreach(r => assert(inexactIEntries(r) == 0, s"$what: stale IEntry in (${t.block},$c)"))
      }
    }

  private def height(t: SignatureTree): Int =
    Iterator.iterate(t.root.orNull) {
      case i: SigInner => i.children.head
      case _ => null
    }.takeWhile(_ != null).size

  test("applyUpdates keeps IEntries exact and exact topK equal to scan over random batches") {
    val rnd = new Random(18)
    val idx = makeIndex(30, 2, 18)
    var next = 1000L
    (1 to 8).foreach { round =>
      // Some existing users (flushing or not), and a few new ones.
      val known = rnd.shuffle(idx.profiles.keys.toList).take(rnd.nextInt(12) + 1)
        .map(u => u -> randEvents(rnd, rnd.nextInt(12) + 1))
      val fresh = (0 until rnd.nextInt(3)).map { _ => next += 1; next -> randEvents(rnd, 8) }
      val report = idx.applyUpdates((known ++ fresh).sortBy(_._1), makeProfileFor)
      assert(report.updatedUsers == known.size && report.newUsers == fresh.size)
      assertExactTrees(idx, s"round $round")
      (1 to 10).foreach { i =>
        val q = randQuery(rnd)
        val k = rnd.nextInt(12) + 1
        assert(idx.topK(q, k, exact = true) == idx.scanTopK(q, k), s"round $round, query $i")
      }
    }
  }

  test("applyUpdates: one batch of updates and new users that split nodes and grow roots") {
    val rnd = new Random(19)
    val idx = makeIndex(12, 2, 19)
    val heights = (0 until NCats).map(c => idx.treesOfCategory(c).map(height))
    val ups = idx.profiles.keys.toSeq.map(u => u -> randEvents(rnd, 9)) ++
      (2000L until 2040L).map(u => u -> randEvents(rnd, 8))
    val report = idx.applyUpdates(ups, makeProfileFor)
    assert(report.updatedUsers == 12 && report.newUsers == 40)
    assert((0 until NCats).exists(c => idx.treesOfCategory(c).map(height).zip(heights(c)).exists {
      case (after, before) => after > before
    }), "no root grew")
    assertExactTrees(idx, "mixed batch")
    (1 to 30).foreach { i =>
      val q = randQuery(rnd)
      val k = rnd.nextInt(15) + 1
      assert(idx.topK(q, k, exact = true) == idx.scanTopK(q, k), s"query $i")
    }
  }

  test("applyUpdates recomputes each dirty IEntry once (UpdateReport.ancestorRecomputes)") {
    val rnd = new Random(20)
    val idx = makeIndex(40, 3, 20)
    val users = rnd.shuffle((0L until 40L).toList).take(25).sorted
    val dirty = (0 until NCats).map { c =>
      idx.treesOfCategory(c).map(t => ancestorsOf(users.flatMap(t.leafOf)).size).sum
    }.sum
    val report = idx.applyUpdates(users.map(u => u -> randEvents(rnd, 6)), makeProfileFor)
    assert(report.ancestorRecomputes <= dirty)
    assert(report.ancestorRecomputes == dirty, "every IEntry above a changed leaf is recomputed")
  }

  test("applyUpdates rejects a user listed twice in one batch") {
    val idx = makeIndex(5, 1, 21)
    val evs = randEvents(new Random(21), 3)
    intercept[IllegalArgumentException](idx.applyUpdates(Seq(1L -> evs, 1L -> evs), makeProfileFor))
  }

  /** User `u`'s leaf in each category, in category order. */
  private def leavesOf(idx: CppseIndex, u: Long): IndexedSeq[EntryStats] =
    (0 until NCats).map(c => idx.tree(TreeRef(idx.blockOf(u).get, c)).get.leafOf(u).get.stats)

  test("applyUpdates without a flush keeps every touched leaf's arrays and links nothing") {
    val rnd = new Random(23)
    // 26-29 events into windows of 5: every window holds 1-4 events.
    val idx = new CppseIndex(256, 4, params, collection, NCats)
      .build((0L until 30L).map(u => randProfile(u, rnd, nEvents = 26 + rnd.nextInt(4))), 3)
    val users = rnd.shuffle((0L until 30L).toList).take(12).sorted
    val before = users.map(u => u -> (idx.profiles(u), leavesOf(idx, u))).toMap
    val report = idx.applyUpdates(users.map { u =>
      val p = idx.profiles(u)
      u -> randEvents(rnd, rnd.nextInt(p.windowCap - p.window.size) + 1)
    }, makeProfileFor)
    users.foreach { u =>
      val (old, oldLeaves) = before(u)
      val p = idx.profiles(u)
      assert((p.longSeq eq old.longSeq) && p.window.size > old.window.size, s"user $u flushed")
      leavesOf(idx, u).zipWithIndex.foreach { case (s, c) =>
        assert(s == Profiles.entryStats(p, c, params.mu, collection), s"user $u, category $c")
        assert(sharesArrays(s, oldLeaves(c)), s"user $u, category $c: arrays rebuilt")
      }
    }
    assert(report.newHashTriads == 0)
    assert(report.ancestorRecomputes > 0 && report.scalarRecomputes == report.ancestorRecomputes)
    assertExactTrees(idx, "no flush")
    (1 to 20).foreach { i =>
      val q = randQuery(rnd)
      assert(idx.topK(q, 8, exact = true) == idx.scanTopK(q, 8), s"query $i")
    }
  }

  test("applyUpdates after a flush reuses arrays exactly for the categories it did not feed") {
    val rnd = new Random(24)
    val idx = makeIndex(30, 3, 24) // full windows: the first new event flushes
    val users = (0L until 30L by 3).toList
    val before = users.map(u => u -> (idx.profiles(u), leavesOf(idx, u))).toMap
    idx.applyUpdates(users.map(u => u -> randEvents(rnd, 2)), makeProfileFor)
    var kept, rebuilt = 0
    users.foreach { u =>
      val (old, oldLeaves) = before(u)
      val p = idx.profiles(u)
      assert(p.totalLong > old.totalLong, s"user $u: no flush")
      leavesOf(idx, u).zipWithIndex.foreach { case (s, c) =>
        assert(s == Profiles.entryStats(p, c, params.mu, collection), s"user $u, category $c")
        val fed = p.catCount(c) != old.catCount(c)
        assert(sharesArrays(s, oldLeaves(c)) == !fed, s"user $u, category $c, fed: $fed")
        if (fed) rebuilt += 1 else kept += 1
      }
    }
    assert(kept > 0 && rebuilt > 0, s"$kept kept, $rebuilt rebuilt")
    assertExactTrees(idx, "flush")
  }

  test("scalacheck: tiny batches keep leaves, IEntries, hash links and exact topK right") {
    import org.scalacheck.{Gen, Prop, Test => ScTest}
    var flushes, newUsers, rootGrowth = 0
    val prop = Prop.forAll(Gen.choose(1L, 100000L)) { seed =>
      val rnd = new Random(seed)
      // Windows of 2 flush often; fanout 2 splits on most inserts.
      def profile(u: Long, events: Seq[CompactEvent]): UserProfile =
        Profiles.build(u, events, IoHmm.random(2, NZ, NCats, seed = u), NCats, 2)
      val idx = new CppseIndex(64, 2, params, collection, NCats)
        .build((0L until 10L).map(u => profile(u, randEvents(rnd, rnd.nextInt(8) + 1))), 2)
      var next = 100L
      (1 to 12).foreach { round =>
        val what = s"seed $seed, round $round"
        val picks = Seq.fill(rnd.nextInt(3) + 1) {
          if (rnd.nextInt(5) == 0) { next += 1; next } else rnd.shuffle(idx.profiles.keys.toSeq).head
        }
        val batch = picks.groupBy(identity).toSeq.map { case (u, n) => u -> randEvents(rnd, n.size) }.sortBy(_._1)
        val before = batch.flatMap { case (u, _) => idx.profiles.get(u).map(p => u -> (p, leavesOf(idx, u))) }
        val heights = (0 until NCats).map(c => idx.treesOfCategory(c).map(height))
        idx.applyUpdates(batch, profile)
        newUsers += batch.size - before.size
        if ((0 until NCats).exists(c => idx.treesOfCategory(c).map(height).zip(heights(c))
              .exists { case (a, b) => a > b })) rootGrowth += 1
        assertExactTrees(idx, what)
        before.foreach { case (u, (old, oldLeaves)) =>
          val p = idx.profiles(u)
          if (p.longSeq ne old.longSeq) flushes += 1
          leavesOf(idx, u).zipWithIndex.foreach { case (s, c) =>
            assert(sharesArrays(s, oldLeaves(c)) == (p.catCount(c) == old.catCount(c)), s"$what: user $u, category $c")
          }
        }
        idx.profiles.valuesIterator.foreach { p =>
          p.entCount.foreach { case (c, em) =>
            val t = idx.tree(TreeRef(idx.blockOf(p.userId).get, c)).get
            em.keysIterator.foreach { e =>
              assert(idx.locateTrees(new ItemQuery(0L, c, 0L, Array(e), Array(1.0))).exists(_ eq t),
                     s"$what: ($c, $e) of user ${p.userId} does not locate its tree")
            }
          }
        }
        (1 to 4).foreach { i =>
          val q = randQuery(rnd)
          val k = rnd.nextInt(8) + 1
          assert(idx.topK(q, k, exact = true) == idx.scanTopK(q, k), s"$what, query $i")
        }
      }
      true
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(25), prop)
    assert(res.passed, res.status.toString)
    assert(flushes > 0 && newUsers > 0 && rootGrowth > 0, s"$flushes flushes, $newUsers new users, $rootGrowth root growths")
  }

  /** The trees fast mode must locate for `q`, from the profiles: each block
    * with a user whose entity counts in `q`'s category hold one of `q`'s
    * entities.
    */
  private def refLocated(idx: CppseIndex, q: ItemQuery): Set[TreeRef] =
    idx.profiles.valuesIterator.collect {
      case p if p.entCount.get(q.category).exists(em => q.entityIds.exists(em.contains)) =>
        TreeRef(idx.blockOf(p.userId).get, q.category)
    }.toSet

  test("locateTrees equals the Set[TreeRef] reference through updates, new users and a first block") {
    val rnd = new Random(25)
    Seq(0, 30).foreach { nUsers =>
      // From an empty index, the first new user opens block 0.
      val idx = new CppseIndex(16, 3, params, collection, NCats)
        .build((0L until nUsers.toLong).map(u => randProfile(u, rnd, nEvents = rnd.nextInt(20) + 1)), 4)
      var next = 1000L
      (1 to 15).foreach { round =>
        val known = rnd.shuffle(idx.profiles.keys.toList).take(rnd.nextInt(6))
          .map(u => u -> randEvents(rnd, rnd.nextInt(8) + 1))
        val fresh = (0 until rnd.nextInt(4)).map { _ => next += 1; next -> randEvents(rnd, rnd.nextInt(8) + 1) }
        idx.applyUpdates((known ++ fresh).sortBy(_._1), makeProfileFor)
        (0 until 30).foreach { i =>
          val q = if (i < 10) randQuery(rnd)
                  else ItemQuery(0L, rnd.nextInt(NCats), 0L, Seq(rnd.nextInt(NEnt) -> 1.0))
          val got = idx.locateTrees(q)
          val what = s"$nUsers users, round $round, query $i"
          assert(got.map(t => TreeRef(t.block, t.category)).toSet == refLocated(idx, q), what)
          assert(got.map(_.block) == got.map(_.block).sorted.distinct, s"$what: not in block order")
          got.foreach(t => assert(idx.tree(TreeRef(t.block, t.category)).exists(_ eq t), what))
        }
      }
      assert(idx.numBlocks >= 1 && idx.profiles.size > nUsers)
    }
  }

  test("exact topK equals the scan on ids and scores when many IEntry bounds tie") {
    val rnd = new Random(26)
    // Most users share one profile: their leaves are equal, so are the
    // IEntries over them and the bounds the search compares.
    val twinEvents = randEvents(rnd, 30)
    val twinModel = IoHmm.random(2, NZ, NCats, seed = 3)
    val users = (0L until 90L).map { u =>
      if (u % 9 == 4) randProfile(u, rnd) else Profiles.build(u, twinEvents, twinModel, NCats, 5)
    }
    val idx = new CppseIndex(256, 3, params, collection, NCats).build(users, 3)
    val tiedIEntries = (0 until NCats).map { c =>
      idx.treesOfCategory(c).flatMap(t => t.root.toSeq.flatMap(innerStats)).groupBy(identity).values.count(_.size > 1)
    }.sum
    assert(tiedIEntries > 0, "no two IEntries tie")
    (1 to 20).foreach { i =>
      val q = randQuery(rnd)
      Seq(1, 5, 17, 30, 60, 89, 90, 95).foreach { k =>
        assert(idx.topK(q, k, exact = true) == idx.scanTopK(q, k), s"case $i, k = $k")
      }
    }
  }

  /** The statistics of every IEntry under `n`, inclusive. */
  private def innerStats(n: SigNode): Seq[EntryStats] = n match {
    case _: SigLeaf => Seq.empty
    case i: SigInner => i.stats +: i.children.toSeq.flatMap(innerStats)
  }
}
