package repro.index

import repro.core.{CollectionStats, EntryStats, ItemQuery, RankParams, Ranking}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

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
}

/** Extended signature tree over the users of one (block, category) pair.
  * Supports bulk build, exact-upper-bound maintenance on batches of leaf
  * updates (each IEntry above them recomputed once), and leaf insertion with
  * node splits (the 20%-reserve trick of Section V-C is
  * subsumed by growing the sparse maps directly).
  */
final class SignatureTree(val block: Int, val category: Int, val fanout: Int)
    extends Serializable {
  require(fanout >= 2, "fanout must be >= 2")

  private var rootNode: SigNode = _
  private val leavesById = mutable.Map.empty[Long, SigLeaf]

  /** Root entry, or None for an empty tree. */
  def root: Option[SigNode] = Option(rootNode)

  /** Number of user profiles (LEntries) in the tree. */
  def size: Int = leavesById.size

  /** The leaf of a user, if present. */
  def leafOf(userId: Long): Option[SigLeaf] = leavesById.get(userId)

  private def recomputeStats(n: SigInner): Unit =
    n.stats = EntryStats.max(n.children.map(_.stats))

  /** Recompute every IEntry above the `changed` nodes exactly once, deepest
    * first, so each one is rebuilt from final children (a recompute, not a
    * max-merge: updated components may shrink).
    * @return the number of IEntries recomputed.
    */
  private def recomputeAbove(changed: IterableOnce[SigNode]): Int = {
    val dirty = mutable.HashSet.empty[SigInner]
    changed.iterator.foreach { n =>
      var p = n.parent
      while (p != null && dirty.add(p)) p = p.parent
    }
    def depth(n: SigNode): Int = {
      var d = 0; var p = n.parent
      while (p != null) { d += 1; p = p.parent }
      d
    }
    dirty.toArray.sortBy(n => -depth(n)).foreach(recomputeStats)
    dirty.size
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

  /** Algorithm 2 on this tree: write every user's new leaf statistics, then
    * recompute each IEntry above them once, bottom-up.
    * @return the number of IEntries recomputed.
    */
  def updateAll(batch: Iterable[(Long, EntryStats)]): Int = {
    batch.foreach { case (u, _) =>
      require(leavesById.contains(u), s"user $u missing from tree ($block,$category)")
    }
    recomputeAbove(batch.map { case (u, s) => val leaf = leavesById(u); leaf.stats = s; leaf })
  }

  /** [[updateAll]] of one user.
    * @return false if the user is not in this tree.
    */
  def update(userId: Long, stats: EntryStats): Boolean =
    if (!leavesById.contains(userId)) false
    else { updateAll(Seq(userId -> stats)); true }

  /** Insert a new user: descend into the smallest subtree, attach the leaf at
    * the deepest internal level, split overflowing nodes upward (a root split
    * grows the tree by one level), then recompute the IEntries above the leaf
    * and the split-off nodes once, bottom-up.
    * @return the number of IEntries recomputed.
    */
  def insert(userId: Long, stats: EntryStats): Int = {
    require(!leavesById.contains(userId), s"user $userId already present")
    val leaf = new SigLeaf(userId)
    leaf.stats = stats
    leavesById(userId) = leaf
    // The new leaf and a child of both halves of every split: the IEntries
    // above them are the ones the insert changed.
    val changed = ArrayBuffer[SigNode](leaf)
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
          val right = new SigInner
          val moved = node.children.takeRight(node.children.size / 2)
          node.children.remove(node.children.size - moved.size, moved.size)
          moved.foreach { m => m.parent = right; right.children += m }
          changed += node.children.head += right.children.head
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
    recomputeAbove(changed)
  }

  private def subtreeSize(n: SigNode): Int = n match {
    case _: SigLeaf => 1
    case i: SigInner => i.children.iterator.map(subtreeSize).sum
  }

  /** All (userId, stats) leaves — for exhaustive checks in tests. */
  def leaves: Seq[(Long, EntryStats)] =
    leavesById.iterator.map { case (u, l) => (u, l.stats) }.toSeq

  /** Single-tree KNN (Algorithm 1 over this tree alone) — used by the
    * per-category Structured Streaming matching operator, where each category
    * group holds exactly one tree.
    */
  def knn(q: ItemQuery, k: Int, prm: RankParams, col: CollectionStats): Seq[(Long, Double)] =
    SignatureTree.search(root, q, k, prm, col)
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

  /** Algorithm 1: branch-and-bound KNN over the given tree roots. A priority
    * queue ordered by the IEntry upper bound (Lemma 2) is seeded with the
    * roots; entries whose bound reaches the current k-th best score `LB` are
    * expanded, and leaves are collected into a size-k result heap. Results rank
    * in [[Ranking.rankOrder]] (score descending, then userId ascending), like
    * [[CppseIndex.scanTopK]], so an entry is pruned only when its bound is
    * strictly below `LB`: a bound equal to `LB` may still hold a lower userId.
    * Every node is scored by one [[Ranking.Scorer]] prepared for `q`; the
    * search's counts are added to `stats`.
    */
  def search(roots: IterableOnce[SigNode], q: ItemQuery, k: Int, prm: RankParams,
             col: CollectionStats, stats: SearchStats = new SearchStats): Seq[(Long, Double)] = {
    require(k >= 1, "k must be >= 1")
    val scorer = new Ranking.Scorer(q, prm, col)
    val queue = mutable.PriorityQueue.empty[(Double, SigNode)](
      Ordering.by[(Double, SigNode), Double](_._1))
    roots.iterator.foreach { r =>
      stats.treesLocated += 1; stats.nodesScored += 1
      queue.enqueue((scorer.score(r.stats), r))
    }
    val top = new Ranking.TopK(k)
    def lb: Double = top.kthScore
    while (queue.nonEmpty && queue.head._1 >= lb) queue.dequeue() match {
      case (s, leaf: SigLeaf) => // s >= LB; a tie keeps the lower userId
        stats.leavesReached += 1
        top.offer((leaf.userId, s))
      case (_, inner: SigInner) =>
        stats.nodesScored += inner.children.size
        inner.children.foreach { ch =>
          val s = scorer.score(ch.stats)
          if (s >= lb) queue.enqueue((s, ch)) else stats.nodesPruned += 1
        }
    }
    stats.nodesPruned += queue.size
    top.drain()
  }
}
