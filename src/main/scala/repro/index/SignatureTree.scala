package repro.index

import repro.core.{CollectionStats, EntryStats, ItemQuery, RankParams, Ranking}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import SignatureTree.{Forced, Idle, Lists, Scalars}

/** A node of the extended signature tree. `stats` is the node's signature:
  * the user's own statistics at a leaf (LEntry), the element-wise max over
  * all children at an internal node (IEntry) — the "virtual user whose
  * interests cover all of its children" of Section V-A.
  */
sealed abstract class SigNode extends Serializable {
  var stats: EntryStats = _
  var parent: SigInner = _
}

/** LEntry: one user's per-category profile statistics. */
final class SigLeaf(val userId: Long) extends SigNode

/** IEntry: upper-bound summary of a subtree. */
final class SigInner extends SigNode {
  val children: ArrayBuffer[SigNode] = ArrayBuffer.empty
  /** What an Algorithm-2 pass has queued it for: one of
    * [[SignatureTree.Idle]], `Scalars`, `Lists` or `Forced`.
    */
  private[index] var queued: Int = SignatureTree.Idle
}

/** Extended signature tree over the users of one (block, category) pair.
  * Supports bulk build, exact-upper-bound maintenance on batches of leaf
  * updates (each IEntry above a changed leaf recomputed at most once), and
  * leaf insertion with node splits (the 20%-reserve trick of Section V-C is
  * subsumed by growing the sparse maps directly). Every leaf sits at one
  * depth: the bulk load packs them level by level, an insert attaches at the
  * deepest internal level and splits grow the tree only at the root.
  */
final class SignatureTree(val block: Int, val category: Int, val fanout: Int)
    extends Serializable {
  require(fanout >= 2, "fanout must be >= 2")

  private var rootNode: SigNode = _
  private val leavesById = mutable.LongMap.empty[SigLeaf]

  /** Root entry, or None for an empty tree. */
  def root: Option[SigNode] = Option(rootNode)

  /** Number of user profiles (LEntries) in the tree. */
  def size: Int = leavesById.size

  /** The leaf of a user, if present. */
  def leafOf(userId: Long): Option[SigLeaf] = leavesById.get(userId)

  private def recomputeStats(n: SigInner): Unit =
    n.stats = EntryStats.max(n.children.map(_.stats))

  /** Queue `p`, if any, in `level` for at least the recompute `what`. */
  private def queue(p: SigInner, what: Int, level: ArrayBuffer[SigInner]): Unit =
    if (p != null) {
      if (p.queued == Idle) level += p
      p.queued = math.max(p.queued, what)
    }

  /** The IEntry `p` with `pL`, `pS` and `invTot` recomputed as the max over
    * its children and its impact lists kept.
    */
  private def scalarMax(p: SigInner): EntryStats = {
    var pL, pS, invTot = Double.NegativeInfinity
    var i = 0
    while (i < p.children.length) {
      val s = p.children(i).stats
      pL = math.max(pL, s.pL); pS = math.max(pS, s.pS); invTot = math.max(invTot, s.invTot)
      i += 1
    }
    new EntryStats(pL, pS, invTot, p.stats.prodKeys, p.stats.prodVals, p.stats.entKeys, p.stats.entVals)
  }

  /** Recompute the queued IEntries level by level, from the deepest up: all
    * leaves sit at one depth, so each level holds IEntries of one depth and
    * each is recomputed once, from final children. `split(i)`, an IEntry an
    * insert split, joins the i-th level, `Forced`. An IEntry queued
    * `Scalars` recomputes only its scalars and keeps its impact lists; any
    * other recomputes the full k-way max, keeping its old arrays if the lists
    * come out equal. An IEntry whose value did not change queues nothing
    * above it, unless it is `Forced`, which queues its parent `Forced`.
    * @return the number of IEntries recomputed.
    */
  private def propagate(start: ArrayBuffer[SigInner], split: collection.IndexedSeq[SigInner],
                        counts: RecomputeStats): Int = {
    var level = start
    var above = ArrayBuffer.empty[SigInner]
    var done, i = 0
    while (level.nonEmpty || i < split.length) {
      if (i < split.length) queue(split(i), Forced, level)
      var j = 0
      while (j < level.length) {
        val p = level(j)
        val old = p.stats
        val fresh =
          if (p.queued == Scalars) { counts.scalarRecomputes += 1; scalarMax(p) }
          else {
            val m = EntryStats.max(p.children.map(_.stats))
            if (old != null && m.sameLists(old)) m.withListsOf(old) else m
          }
        val listsMoved = old == null || !fresh.sameLists(old)
        if (listsMoved || !fresh.sameScalars(old)) p.stats = fresh
        if (p.queued == Forced) queue(p.parent, Forced, above)
        else if (p.stats ne old) queue(p.parent, if (listsMoved) Lists else Scalars, above)
        p.queued = Idle
        j += 1
      }
      done += level.length
      val t = level; level = above; above = t; above.clear()
      i += 1
    }
    counts.recomputes += done
    done
  }

  /** Bulk-load the tree bottom-up: leaves are packed `fanout` at a time into
    * internal nodes level by level until a single root remains.
    */
  def build(entries: Seq[(Long, EntryStats)]): this.type = {
    leavesById.clear()
    if (entries.isEmpty) { rootNode = null; return this }
    var level: Seq[SigNode] = entries.map { case (u, s) =>
      val l = new SigLeaf(u); l.stats = s; leavesById(u) = l; l
    }
    while (level.size > 1) {
      level = level.grouped(fanout).map { grp =>
        val inner = new SigInner
        grp.foreach { ch => ch.parent = inner; inner.children += ch }
        recomputeStats(inner)
        inner
      }.toSeq
    }
    rootNode = level.head
    rootNode.parent = null
    this
  }

  /** Algorithm 2 on this tree: give each listed user's leaf the statistics
    * its function makes of the leaf's old ones, then recompute, bottom-up and
    * at most once each, the IEntries above the leaves whose value changed,
    * stopping at those whose value does not change. Each leaf is looked up
    * once; a user missing from the tree fails the batch before any change.
    * The recomputes are added to `counts`.
    * @return the number of IEntries recomputed.
    */
  def updateAll(batch: Iterable[(Long, EntryStats => EntryStats)],
                counts: RecomputeStats = new RecomputeStats): Int = {
    val leaves = batch.iterator.map { case (u, _) =>
      val leaf = leavesById.getOrElse(u, null)
      require(leaf != null, s"user $u missing from tree ($block,$category)")
      leaf
    }.toArray
    val level = ArrayBuffer.empty[SigInner]
    batch.iterator.zip(leaves).foreach { case ((_, next), leaf) =>
      val old = leaf.stats
      val s = next(old)
      leaf.stats = s
      if (!s.sameLists(old)) queue(leaf.parent, Lists, level)
      else if (!s.sameScalars(old)) queue(leaf.parent, Scalars, level)
    }
    propagate(level, IndexedSeq.empty, counts)
  }

  /** [[updateAll]] of one user, to `stats`.
    * @return false if the user is not in this tree.
    */
  def update(userId: Long, stats: EntryStats): Boolean =
    if (!leavesById.contains(userId)) false
    else { updateAll(Seq(userId -> ((_: EntryStats) => stats))); true }

  /** Insert a new user: descend into the smallest subtree, attach the leaf at
    * the deepest internal level, split overflowing nodes upward (a root split
    * grows the tree by one level), then recompute the IEntries above the leaf
    * and the split-off nodes once, bottom-up, in full: the subtree of each of
    * them changed. The recomputes are added to `counts`.
    * @return the number of IEntries recomputed.
    */
  def insert(userId: Long, stats: EntryStats, counts: RecomputeStats = new RecomputeStats): Int = {
    require(!leavesById.contains(userId), s"user $userId already present")
    val leaf = new SigLeaf(userId)
    leaf.stats = stats
    leavesById(userId) = leaf
    // The left half of each node split, one per level up from the leaf's.
    val split = ArrayBuffer.empty[SigInner]
    rootNode match {
      case null => rootNode = leaf
      case l: SigLeaf =>
        val inner = new SigInner
        inner.children += l; l.parent = inner
        inner.children += leaf; leaf.parent = inner
        rootNode = inner
      case r: SigInner =>
        var cur = r
        while (cur.children.head.isInstanceOf[SigInner])
          cur = cur.children.minBy(c => subtreeSize(c)).asInstanceOf[SigInner]
        cur.children += leaf
        leaf.parent = cur
        var node = cur
        while (node != null && node.children.size > fanout) {
          split += node
          val right = new SigInner
          val moved = node.children.takeRight(node.children.size / 2)
          node.children.remove(node.children.size - moved.size, moved.size)
          moved.foreach { m => m.parent = right; right.children += m }
          if (node.parent == null) {
            val newRoot = new SigInner
            newRoot.children += node; node.parent = newRoot
            newRoot.children += right; right.parent = newRoot
            rootNode = newRoot
            node = null
          } else {
            val p = node.parent
            p.children += right
            right.parent = p
            node = p
          }
        }
    }
    val level = ArrayBuffer.empty[SigInner]
    queue(leaf.parent, Forced, level)
    propagate(level, split, counts)
  }

  private def subtreeSize(n: SigNode): Int = n match {
    case _: SigLeaf => 1
    case i: SigInner => i.children.iterator.map(subtreeSize).sum
  }

  /** All (userId, stats) leaves, in no particular order. */
  def leaves: Seq[(Long, EntryStats)] =
    leavesById.iterator.map { case (u, l) => (u, l.stats) }.toSeq

  /** Single-tree KNN (Algorithm 1 over this tree alone) — used by the
    * per-category Structured Streaming matching operator, where each category
    * group holds exactly one tree.
    */
  def knn(q: ItemQuery, k: Int, prm: RankParams, col: CollectionStats): Seq[(Long, Double)] =
    SignatureTree.search(root, q, k, prm, col)
}

/** Counters of Algorithm-2 maintenance, added to by each
  * [[SignatureTree.updateAll]] and [[SignatureTree.insert]] given this sink:
  * IEntries recomputed, and of those the ones recomputed from their
  * children's scalars alone (no changed child's impact lists changed, so the
  * IEntry kept its own).
  */
final class RecomputeStats {
  var recomputes: Long = 0L
  var scalarRecomputes: Long = 0L
}

/** Counters of Algorithm-1 searches, added to by each [[SignatureTree.search]]
  * given this sink: trees located (roots seeded), nodes scored, nodes pruned
  * (scored, then cut by the Lemma-1/2 bound without being expanded or
  * reached) and leaves reached (offered to the result heap). Every scored node
  * is pruned, reached, or an expanded IEntry.
  */
final class SearchStats {
  var treesLocated: Long = 0L
  var nodesScored: Long = 0L
  var nodesPruned: Long = 0L
  var leavesReached: Long = 0L
}

object SignatureTree {

  /** What [[SigInner.queued]] holds: not queued; queued to recompute its
    * scalars only (no changed child's impact lists changed); queued to
    * recompute in full; queued to recompute in full and queue its parent
    * `Forced` whether or not its value changed (an insert's path and splits).
    */
  private[index] final val Idle = 0
  private[index] final val Scalars = 1
  private[index] final val Lists = 2
  private[index] final val Forced = 3

  /** Algorithm 1: branch-and-bound KNN over the given tree roots. A max-heap
    * of nodes keyed by their upper bound (Lemma 2) is seeded with the roots;
    * entries whose bound reaches the current k-th best score `LB` are
    * expanded, and leaves are collected into a size-k [[Ranking.TopK]].
    * Results rank in [[Ranking.rankOrder]] (score descending, then userId
    * ascending), like [[CppseIndex.scanTopK]], so an entry is pruned only when
    * its bound is strictly below `LB`: a bound equal to `LB` may still hold a
    * lower userId. Every node is scored by one [[Ranking.Scorer]] prepared for
    * `q`; the search's counts are added to `stats`.
    *
    * Nothing is allocated per scored node. The node heap keeps bounds in a
    * `double` array beside a node array and is kept per thread between
    * searches; the result heap keeps ids and scores in primitive arrays of
    * size k. A warm search allocates its scorer, the result heap and its k
    * results. Nodes of equal bound leave the node heap in an unspecified
    * order. That order can move the `stats` counters, since it decides which
    * of them are expanded before the k-th score rises past their bound, but
    * never the result, which the bound and the rank order fix.
    */
  def search(roots: IterableOnce[SigNode], q: ItemQuery, k: Int, prm: RankParams,
             col: CollectionStats, stats: SearchStats = new SearchStats): Seq[(Long, Double)] = {
    require(k >= 1, "k must be >= 1")
    val scorer = new Ranking.Scorer(q, prm, col)
    val frontier = frontiers.get()
    try {
      roots.iterator.foreach { r =>
        stats.treesLocated += 1; stats.nodesScored += 1
        frontier.push(scorer.score(r.stats), r)
      }
      val top = new Ranking.TopK(k)
      while (frontier.size > 0 && frontier.maxBound >= top.kthScore) {
        val bound = frontier.maxBound
        frontier.pop() match {
          case leaf: SigLeaf => // bound >= LB; a tie keeps the lower userId
            stats.leavesReached += 1
            top.offer(leaf.userId, bound)
          case inner: SigInner =>
            val children = inner.children
            stats.nodesScored += children.length
            var i = 0
            while (i < children.length) {
              val ch = children(i)
              val s = scorer.score(ch.stats)
              if (s >= top.kthScore) frontier.push(s, ch) else stats.nodesPruned += 1
              i += 1
            }
        }
      }
      stats.nodesPruned += frontier.size
      top.drain()
    } finally frontier.clear()
  }

  /** Each thread's [[search]] frontier, kept between its searches so that a
    * warm search allocates none.
    */
  private val frontiers: ThreadLocal[BoundHeap] = ThreadLocal.withInitial(() => new BoundHeap)

  /** The binary max-heap of [[search]]: node `nodes(i)` has upper bound
    * `bounds(i)`, and a parent's bound is at least its children's. Both
    * arrays double when full.
    */
  private final class BoundHeap {
    private var bounds = new Array[Double](64)
    private var nodes = new Array[SigNode](64)
    var size = 0

    /** Empty the heap, dropping its node references. */
    def clear(): Unit = {
      java.util.Arrays.fill(nodes.asInstanceOf[Array[AnyRef]], 0, size, null)
      size = 0
    }

    /** The largest bound held; the heap must not be empty. */
    def maxBound: Double = bounds(0)

    def push(bound: Double, node: SigNode): Unit = {
      if (size == bounds.length) {
        bounds = java.util.Arrays.copyOf(bounds, 2 * size)
        nodes = java.util.Arrays.copyOf(nodes, 2 * size)
      }
      var i = size
      size += 1
      while (i > 0 && bounds((i - 1) >>> 1) < bound) {
        val p = (i - 1) >>> 1
        bounds(i) = bounds(p); nodes(i) = nodes(p)
        i = p
      }
      bounds(i) = bound; nodes(i) = node
    }

    /** Remove and return a node of the largest bound. */
    def pop(): SigNode = {
      val top = nodes(0)
      size -= 1
      val bound = bounds(size)
      val node = nodes(size)
      nodes(size) = null
      if (size > 0) {
        var i = 0
        var c = 1
        while (c < size) {
          if (c + 1 < size && bounds(c + 1) > bounds(c)) c += 1
          if (bounds(c) > bound) {
            bounds(i) = bounds(c); nodes(i) = nodes(c)
            i = c; c = 2 * i + 1
          } else c = size
        }
        bounds(i) = bound; nodes(i) = node
      }
      top
    }
  }
}
