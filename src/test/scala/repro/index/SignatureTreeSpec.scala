package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.testutil.Fixtures
import scala.util.Random

class SignatureTreeSpec extends AnyFunSuite {
  import Fixtures._

  private def tree(entries: Seq[(Long, EntryStats)], fanout: Int = 4): SignatureTree =
    new SignatureTree(0, 0, fanout).build(entries)

  private def entries(n: Int, seed: Long): Seq[(Long, EntryStats)] = {
    val rnd = new Random(seed)
    (0L until n.toLong).map(u => (u, randStats(rnd)))
  }

  private def assertUpperBound(parent: EntryStats, child: EntryStats): Unit = {
    assert(parent.pL >= child.pL - 1e-12)
    assert(parent.pS >= child.pS - 1e-12)
    assert(parent.invTot >= child.invTot - 1e-12)
    child.prod.foreach { case (k, v) => assert(parent.prod.getOrElse(k, 0.0) >= v - 1e-12) }
    child.ent.foreach { case (k, v) => assert(parent.ent.getOrElse(k, 0.0) >= v - 1e-12) }
  }

  /** Every leaf scored, ranked by score descending, then userId ascending. */
  private def bruteForce(t: SignatureTree, q: ItemQuery, k: Int): Seq[(Long, Double)] =
    t.leaves.map { case (u, s) => (u, Ranking.score(s, q, params, collection)) }
      .sortBy { case (u, s) => (-s, u) }.take(k)

  /** A batch for [[SignatureTree.updateAll]] that writes the given statistics. */
  private def writes(batch: Seq[(Long, EntryStats)]): Seq[(Long, EntryStats => EntryStats)] =
    batch.map { case (u, s) => u -> ((_: EntryStats) => s) }

  private def checkTreeBounds(n: SigNode): Unit = n match {
    case _: SigLeaf => ()
    case i: SigInner =>
      i.children.foreach { c => assertUpperBound(i.stats, c.stats); checkTreeBounds(c) }
  }

  test("build keeps every leaf") {
    val es = entries(37, 1)
    val t = tree(es)
    assert(t.size == 37)
    assert(t.leaves.toMap == es.toMap)
  }

  test("empty tree has no root") {
    assert(tree(Seq.empty).root.isEmpty && tree(Seq.empty).size == 0)
  }

  test("single-entry tree roots at the leaf") {
    val es = entries(1, 2)
    val t = tree(es)
    assert(t.root.get.isInstanceOf[SigLeaf])
  }

  test("merge is an element-wise upper bound") {
    val rnd = new Random(3)
    (1 to 50).foreach { _ =>
      val a = randStats(rnd); val b = randStats(rnd)
      val m = a.merge(b)
      assertUpperBound(m, a); assertUpperBound(m, b)
    }
  }

  test("merge is commutative") {
    val rnd = new Random(4)
    (1 to 20).foreach { _ =>
      val a = randStats(rnd); val b = randStats(rnd)
      assert(a.merge(b) == b.merge(a))
    }
  }

  test("every IEntry upper-bounds its entire subtree (Lemma 1)") {
    val t = tree(entries(63, 5))
    checkTreeBounds(t.root.get)
  }

  test("IEntry score upper-bounds every descendant leaf score (Lemma 2)") {
    val rnd = new Random(6)
    val t = tree(entries(50, 6))
    (1 to 30).foreach { _ =>
      val q = randQuery(rnd)
      val rootScore = Ranking.score(t.root.get.stats, q, params, collection)
      t.leaves.foreach { case (u, s) =>
        val ls = Ranking.score(s, q, params, collection)
        assert(rootScore >= ls - 1e-9, s"root bound violated for user $u")
      }
    }
  }

  test("knn equals brute force over the leaves") {
    val rnd = new Random(7)
    val t = tree(entries(80, 7))
    (1 to 40).foreach { i =>
      val q = randQuery(rnd)
      val k = rnd.nextInt(10) + 1
      val got = t.knn(q, k, params, collection)
      assert(got == bruteForce(t, q, k), s"case $i")
    }
  }

  test("knn with k larger than the tree returns all users") {
    val t = tree(entries(5, 8))
    assert(t.knn(randQuery(new Random(8)), 50, params, collection).size == 5)
  }

  test("update replaces leaf stats and refreshes ancestors") {
    val rnd = new Random(9)
    val t = tree(entries(30, 9))
    val bigger = EntryStats(0.99, 0.99, 0.5, Map(1L -> 0.99), Map(2 -> 0.99))
    assert(t.update(7L, bigger))
    assert(t.leafOf(7L).get.stats == bigger)
    val rs = t.root.get.stats
    assert(rs.pL >= 0.99 && rs.prod.getOrElse(1L, 0.0) >= 0.99)
    checkTreeBounds(t.root.get)
  }

  test("shrinking an update also shrinks stale ancestor bounds") {
    val rnd = new Random(10)
    // All-identical leaves: after shrinking one, the root must follow the rest.
    val base = randStats(rnd)
    val es = (0L until 8L).map(u => (u, base))
    val t = tree(es)
    val small = EntryStats(base.pL / 2, base.pS, base.invTot, base.prod, base.ent)
    t.update(3L, small)
    assert(math.abs(t.root.get.stats.pL - base.pL) < 1e-12)
    t.leaves.foreach { case (u, _) => if (u != 3L) t.update(u, small) }
    assert(math.abs(t.root.get.stats.pL - small.pL) < 1e-12)
  }

  test("update of an unknown user returns false") {
    assert(!tree(entries(5, 11)).update(999L, randStats(new Random(11))))
  }

  test("insert grows the tree and preserves bounds") {
    val rnd = new Random(12)
    val t = tree(entries(10, 12), fanout = 3)
    (100L until 140L).foreach(u => t.insert(u, randStats(rnd)))
    assert(t.size == 50)
    checkTreeBounds(t.root.get)
  }

  test("insert into an empty tree works") {
    val t = tree(Seq.empty)
    t.insert(1L, randStats(new Random(13)))
    assert(t.size == 1 && t.leafOf(1L).isDefined)
  }

  test("insert rejects duplicate users") {
    val t = tree(entries(3, 14))
    intercept[IllegalArgumentException](t.insert(1L, randStats(new Random(14))))
  }

  test("knn still matches brute force after many inserts and updates") {
    val rnd = new Random(15)
    val t = tree(entries(20, 15), fanout = 3)
    (200L until 230L).foreach(u => t.insert(u, randStats(rnd)))
    (0L until 10L).foreach(u => t.update(u, randStats(rnd)))
    (1 to 20).foreach { _ =>
      val q = randQuery(rnd)
      assert(t.knn(q, 7, params, collection) == bruteForce(t, q, 7))
    }
  }

  test("fanout below 2 is rejected") {
    intercept[IllegalArgumentException](new SignatureTree(0, 0, 1))
  }

  test("scalacheck: merge upper-bounds both operands on arbitrary stats") {
    import org.scalacheck.{Gen, Prop, Test => ScTest}
    val genStats = Gen.choose(1L, 100000L).map(s => randStats(new Random(s)))
    val prop = Prop.forAll(genStats, genStats) { (a, b) =>
      val m = a.merge(b)
      m.pL >= a.pL && m.pL >= b.pL &&
        a.prod.forall { case (k, v) => m.prod.getOrElse(k, 0.0) >= v } &&
        b.ent.forall { case (k, v) => m.ent.getOrElse(k, 0.0) >= v }
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }

  /** `s` with every component scaled by `f` and each map key dropped with
    * probability 1/3 — a leaf whose components shrink.
    */
  private def shrunk(s: EntryStats, f: Double, rnd: Random): EntryStats = EntryStats(
    s.pL * f, s.pS * f, s.invTot * f,
    s.prod.collect { case (k, v) if rnd.nextInt(3) > 0 => k -> v * f },
    s.ent.collect { case (k, v) if rnd.nextInt(3) > 0 => k -> v * f })

  test("updateAll keeps every IEntry exactly the max of its children") {
    val rnd = new Random(16)
    val t = tree(entries(60, 16), fanout = 3)
    assert(inexactIEntries(t.root.get) == 0)
    (1 to 25).foreach { round =>
      val users = rnd.shuffle((0L until 60L).toList).take(rnd.nextInt(20) + 1)
      val batch = users.map { u =>
        val s = t.leafOf(u).get.stats
        u -> (if (rnd.nextBoolean()) shrunk(s, rnd.nextDouble() * 0.9 + 0.05, rnd) else randStats(rnd))
      }
      val dirty = ancestorsOf(users.map(t.leafOf(_).get))
      assert(t.updateAll(writes(batch)) == dirty.size, s"round $round: one recompute per dirty IEntry")
      batch.foreach { case (u, s) => assert(t.leafOf(u).get.stats == s) }
      assert(inexactIEntries(t.root.get) == 0, s"round $round: stale IEntry")
      val q = randQuery(rnd)
      assert(t.knn(q, 7, params, collection) == bruteForce(t, q, 7), s"round $round")
    }
  }

  test("updateAll rejects a batch with a user missing from the tree, before any change") {
    val t = tree(entries(10, 17))
    val before = t.leaves.toMap
    val e = intercept[IllegalArgumentException](
      t.updateAll(writes(Seq(1L -> randStats(new Random(17)), 999L -> randStats(new Random(18))))))
    assert(e.getMessage.contains("user 999 missing from tree (0,0)"))
    assert(t.leaves.toMap == before)
  }

  test("insert keeps every IEntry exact through splits and root growth") {
    val rnd = new Random(18)
    val t = tree(entries(9, 18), fanout = 3)
    val roots = scala.collection.mutable.Set[SigNode](t.root.get)
    (100L until 160L).foreach { u =>
      val recomputed = t.insert(u, randStats(rnd))
      // The leaf's path, plus the split-off half of each node that split.
      val path = ancestorsOf(Seq(t.leafOf(u).get)).size
      assert(recomputed >= path && recomputed <= 2 * path, s"user $u: $recomputed for a path of $path")
      roots += t.root.get
      assert(inexactIEntries(t.root.get) == 0, s"after inserting user $u")
    }
    assert(roots.size > 1, "the root never split")
  }

  test("scalacheck: the k-way max equals a left fold of pairwise merges") {
    import org.scalacheck.{Gen, Prop, Test => ScTest}
    val genStats = Gen.choose(1L, 100000L).map(s => randStats(new Random(s)))
    val genList = Gen.choose(1, 9).flatMap(n => Gen.listOfN(n, genStats))
    def keyMax[K](ms: Seq[Map[K, Double]]): Map[K, Double] =
      ms.flatMap(_.keys).distinct.map(k => k -> ms.map(_.getOrElse(k, 0.0)).max).toMap
    val prop = Prop.forAll(genList) { xs =>
      val m = EntryStats.max(xs)
      m == xs.reduceLeft(_ merge _) &&
        m == EntryStats(xs.map(_.pL).max, xs.map(_.pS).max, xs.map(_.invTot).max,
                        keyMax(xs.map(_.prod)), keyMax(xs.map(_.ent)))
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }

  test("scalacheck: the sorted-union k-way max equals a left fold of the reference pairwise merges") {
    import org.scalacheck.{Gen, Prop, Test => ScTest}
    val genStats = Gen.choose(1L, 100000L).map(s => randStats(new Random(s), minKeys = 0))
    val genList = Gen.choose(1, 9).flatMap(n => Gen.listOfN(n, genStats))
    def ascending(keys: Array[Long]): Boolean = keys.indices.drop(1).forall(i => keys(i - 1) < keys(i))
    val prop = Prop.forAll(genList) { xs =>
      val m = EntryStats.max(xs)
      m == xs.reduceLeft((a, b) => refMax(Seq(a, b))) && m == refMax(xs) &&
        m.hashCode == refMax(xs).hashCode &&
        ascending(m.prodKeys) && ascending(m.entKeys.map(_.toLong))
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }

  test("search scores equal the Map-based reference scorer bit for bit") {
    val rnd = new Random(19)
    val t = tree(entries(70, 19))
    (1 to 30).foreach { i =>
      val q = randQuery(rnd)
      t.knn(q, 10, params, collection).foreach { case (u, got) =>
        val (rl, rs) = refComponents(t.leafOf(u).get.stats, q, params, collection)
        assert(got == Ranking.combine(rl, rs, params.lambdaS), s"case $i, user $u")
      }
    }
  }

  /** Nodes under `n`, inclusive. */
  private def nodeCount(n: SigNode): Int = n match {
    case _: SigLeaf => 1
    case i: SigInner => 1 + i.children.iterator.map(nodeCount).sum
  }

  test("SearchStats: every scored node is a located root or a child of an expanded node") {
    val rnd = new Random(20)
    // Three full trees (64 leaves, fanout 4): every IEntry has 4 children, so
    // nodes scored = roots + 4 × expanded, and expanded = scored - pruned - leaves.
    val forest = (0 until 3).map(b => tree(entries(64, 20L + b).map { case (u, s) => (u + 100L * b, s) }))
    var pruned = 0L
    (1 to 40).foreach { i =>
      val q = randQuery(rnd)
      val k = if (i % 4 == 0) 1 else rnd.nextInt(20) + 1
      val st = new SearchStats
      val got = SignatureTree.search(forest.flatMap(_.root), q, k, params, collection, st)
      assert(st.treesLocated == 3)
      val expanded = st.nodesScored - st.nodesPruned - st.leavesReached
      assert(st.nodesScored == st.treesLocated + 4 * expanded, s"case $i")
      assert(st.leavesReached >= got.size, s"case $i")
      pruned += st.nodesPruned
    }
    assert(pruned > 0, "the bound never cut")
    // With k at least the population nothing is pruned and every node is scored.
    val st = new SearchStats
    SignatureTree.search(forest.flatMap(_.root), randQuery(rnd), 192, params, collection, st)
    assert(st.nodesPruned == 0 && st.leavesReached == 192)
    assert(st.nodesScored == forest.map(t => nodeCount(t.root.get)).sum)
  }

  /** Depth of every leaf under `n`, `n` being at depth `d`. */
  private def leafDepths(n: SigNode, d: Int = 0): Seq[Int] = n match {
    case _: SigLeaf => Seq(d)
    case i: SigInner => i.children.toSeq.flatMap(leafDepths(_, d + 1))
  }

  test("every leaf sits at one depth through bulk loads, inserts, splits and root growth") {
    // updateAll recomputes level by level, which relies on this.
    val rnd = new Random(21)
    (2 to 5).foreach { fanout =>
      val t = tree(entries(rnd.nextInt(30) + 1, 21L + fanout), fanout)
      assert(leafDepths(t.root.get).distinct.size == 1, s"fanout $fanout, bulk load")
      (500L until 560L).foreach { u =>
        t.insert(u, randStats(rnd))
        assert(leafDepths(t.root.get).distinct.size == 1, s"fanout $fanout, after inserting user $u")
      }
    }
    val grown = tree(Seq.empty, fanout = 2)
    (0L until 9L).foreach(u => grown.insert(u, randStats(rnd)))
    assert(leafDepths(grown.root.get).distinct == Seq(4))
  }

  /** The IEntries from `n` up to the root. */
  private def pathUp(n: SigInner): List[SigInner] = Iterator.iterate(n)(_.parent).takeWhile(_ != null).toList

  test("early stop: a pS-only change below its parent's max recomputes exactly one IEntry") {
    val t = tree(entries(64, 22)) // fanout 4: three IEntry levels
    var cases = 0
    t.leaves.sortBy(_._1).foreach { case (u, s) =>
      val parent = t.leafOf(u).get.parent
      if (s.pS < parent.stats.pS) {
        val before = pathUp(parent).map(_.stats)
        val counts = new RecomputeStats
        val lower = new EntryStats(s.pL, s.pS / 2, s.invTot, s.prodKeys, s.prodVals, s.entKeys, s.entVals)
        assert(t.updateAll(writes(Seq(u -> lower)), counts) == 1, s"user $u")
        assert(counts.recomputes == 1 && counts.scalarRecomputes == 1, s"user $u")
        assert(pathUp(parent).map(_.stats).zip(before).forall { case (a, b) => a eq b }, s"user $u")
        assert(inexactIEntries(t.root.get) == 0, s"user $u")
        cases += 1
      }
    }
    assert(cases > 10, s"$cases leaves below their parent's max")
  }

  test("a change of pL or invTot alone reaches every IEntry it moves, keeping their arrays") {
    val raise: Seq[(String, (EntryStats, EntryStats) => EntryStats)] = Seq(
      "pL" -> ((s, top) => new EntryStats(2 * top.pL, s.pS, s.invTot, s.prodKeys, s.prodVals, s.entKeys, s.entVals)),
      "invTot" -> ((s, top) => new EntryStats(s.pL, s.pS, 2 * top.invTot, s.prodKeys, s.prodVals, s.entKeys, s.entVals)))
    raise.foreach { case (what, f) =>
      val t = tree(entries(64, 23))
      val path = pathUp(t.leafOf(9L).get.parent)
      val before = path.map(_.stats)
      val counts = new RecomputeStats
      val s = f(t.leafOf(9L).get.stats, t.root.get.stats)
      assert(t.updateAll(writes(Seq(9L -> s)), counts) == path.size, what)
      assert(counts.scalarRecomputes == path.size, what)
      assert(t.root.get.stats.pL == math.max(s.pL, before.last.pL), what)
      assert(t.root.get.stats.invTot == math.max(s.invTot, before.last.invTot), what)
      path.zip(before).foreach { case (n, b) => assert((n.stats ne b) && sharesArrays(n.stats, b), what) }
      assert(inexactIEntries(t.root.get) == 0, what)
    }
  }

  test("a leaf written with value-equal statistics recomputes nothing") {
    val t = tree(entries(40, 24))
    val copies = t.leaves.map { case (u, s) =>
      u -> new EntryStats(s.pL, s.pS, s.invTot, s.prodKeys.clone(), s.prodVals.clone(),
                          s.entKeys.clone(), s.entVals.clone())
    }
    assert(t.updateAll(writes(copies)) == 0)
    assert(inexactIEntries(t.root.get) == 0)
  }

  test("search equals brute force on trees whose bounds tie") {
    val rnd = new Random(25)
    // A few distinct statistics shared by many users: equal leaves, equal
    // IEntries and equal scores straddling rank k.
    val shapes = IndexedSeq.fill(3)(randStats(rnd))
    val forest = (0 until 3).map { b =>
      tree((0L until 40L).map(u => (u * 3 + b, shapes(rnd.nextInt(3)))), fanout = 2 + b)
    }
    def all(q: ItemQuery): Seq[(Long, Double)] = forest.flatMap(t => bruteForce(t, q, t.size))
      .sortBy { case (u, s) => (-s, u) }
    (1 to 30).foreach { i =>
      val q = randQuery(rnd)
      (1 to 125 by 6).foreach { k =>
        val got = SignatureTree.search(forest.flatMap(_.root), q, k, params, collection)
        assert(got == all(q).take(k), s"case $i, k = $k")
      }
    }
  }

  test("a warm search allocates O(k) bytes, however many nodes it scores") {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    def allocated(): Long = mx.getThreadAllocatedBytes(Thread.currentThread().getId)
    val rnd = new Random(26)
    val forest = (0 until 4).map(b => tree(entries(256, 26L + b).map { case (u, s) => (u + 1000L * b, s) }))
    val roots = forest.flatMap(_.root)
    val queries = IndexedSeq.fill(50)(randQuery(rnd))
    /** Nodes scored and bytes allocated per warm search at `k`. */
    def perSearch(k: Int): (Long, Long) = {
      (1 to 40).foreach(_ => queries.foreach(q => SignatureTree.search(roots, q, k, params, collection)))
      val st = new SearchStats
      val before = allocated()
      (1 to 10).foreach(_ => queries.foreach(q => SignatureTree.search(roots, q, k, params, collection, st)))
      val n = 10L * queries.size
      (st.nodesScored / n, (allocated() - before) / n)
    }
    Seq(1, 30, 100).foreach { k =>
      val (scored, bytes) = perSearch(k)
      if (k == 30) assert(scored >= 10 * k, s"$scored nodes scored: the fixture must score at least 10k")
      // The scorer, the result heap's two arrays and the k results.
      assert(bytes < 2048 + 96 * k, s"k = $k: $bytes bytes per search, $scored nodes scored")
    }
  }
}
