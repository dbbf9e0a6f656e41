package repro.index

import repro.core._
import scala.collection.mutable.ArrayBuffer

/** Reference into the forest: the extended signature tree of one user block
  * under one category.
  */
final case class TreeRef(block: Int, category: Int)

/** One triad `⟨key, sptr, nextptr⟩` of the chained hash table (Section V-A),
  * stored as `⟨(c, e), blocks, next⟩`: the category-entity pair as two ints,
  * the blocks whose tree of category `c` covers the pair (all of a triad's
  * trees belong to its category, so the block id names the tree), and the
  * chain pointer for collisions.
  */
final class HashTriad(val category: Int, val entity: Int,
                      val blocks: scala.collection.mutable.BitSet,
                      var next: HashTriad) extends Serializable

/** Report of one maintenance pass (Algorithm 2) — used by tests and by the
  * Fig-11 update-cost bench. `ancestorRecomputes` counts the IEntries the
  * pass actually recomputed, over all trees: those above a leaf whose value
  * changed, up to the first whose own value did not (propagation stops
  * there), and for a new user every IEntry above its leaf plus each node its
  * insert split. `scalarRecomputes` counts those of them recomputed from
  * their children's `pL`, `pS` and `invTot` alone, because no changed
  * child's impact lists changed.
  */
final case class UpdateReport(updatedUsers: Int, newUsers: Int, newHashTriads: Int,
                              ancestorRecomputes: Int, scalarRecomputes: Int)

/** The CPPse-index: a chained hash table from category-entity pairs to
  * extended signature trees, one tree per (user block × category), plus the
  * user profile records the LEntries point to.
  *
  * `topK` implements Algorithm 1 (branch-and-bound KNN over the located
  * trees); `applyUpdates` implements Algorithm 2.
  */
final class CppseIndex(val nBuckets: Int,
                       val fanout: Int,
                       val params: RankParams,
                       val collection: CollectionStats,
                       val nCategories: Int) extends Serializable {
  require(nBuckets > 0, "nBuckets must be positive")

  private val buckets = new Array[HashTriad](nBuckets)
  /** The forest: `forest(c)(b)` is the tree of block b under category c. */
  private val forest = Array.fill(nCategories)(ArrayBuffer.empty[SignatureTree])
  private val blockOfUser = scala.collection.mutable.Map.empty[Long, Int]
  private val centroids = ArrayBuffer.empty[Array[Double]]
  val profiles: scala.collection.mutable.Map[Long, UserProfile] =
    scala.collection.mutable.Map.empty

  /** Number of user blocks. */
  def numBlocks: Int = centroids.size

  /** Block assignment of a user, if indexed. */
  def blockOf(userId: Long): Option[Int] = blockOfUser.get(userId)

  /** All trees of one category (the exact-mode candidate set). */
  def treesOfCategory(c: Int): Seq[SignatureTree] = forest(c).toSeq

  /** Tree of one (block, category), if it exists. */
  def tree(ref: TreeRef): Option[SignatureTree] =
    forest.lift(ref.category).flatMap(_.lift(ref.block))

  /** Distinct entities covered by a block's signatures (Table II statistic). */
  def blockEntityCount(block: Int): Int =
    profiles.valuesIterator.filter(p => blockOfUser(p.userId) == block)
      .flatMap(_.entities).toSet.size

  /** Distinct producers covered by a block's signatures (Table II statistic). */
  def blockProducerCount(block: Int): Int =
    profiles.valuesIterator.filter(p => blockOfUser(p.userId) == block)
      .flatMap(_.producers).toSet.size

  // ---------------------------------------------------------------- hashing

  /** The triad of a category-entity pair, or null. */
  private def findTriad(c: Int, e: Int): HashTriad = {
    var node = buckets(Hashing.pairHash(c, e, nBuckets))
    while (node != null && (node.category != c || node.entity != e)) node = node.next
    node
  }

  /** Link block `block`'s tree of category `c` under the pair `(c, e)`,
    * creating the triad if needed.
    * @return true if a new triad was inserted (a previously-unseen pair).
    */
  private def link(c: Int, e: Int, block: Int): Boolean = findTriad(c, e) match {
    case null =>
      val b = Hashing.pairHash(c, e, nBuckets)
      buckets(b) = new HashTriad(c, e, scala.collection.mutable.BitSet(block), buckets(b))
      true
    case t => t.blocks += block; false
  }

  /** Trees reachable from the query's category-entity pairs (fast mode), in
    * block order.
    */
  def locateTrees(q: ItemQuery): Seq[SignatureTree] = {
    val trees = forest(q.category)
    val hit = new Array[Boolean](trees.length)
    val mark = (b: Int) => hit(b) = true
    var i = 0
    while (i < q.entityIds.length) {
      val t = findTriad(q.category, q.entityIds(i))
      if (t != null) t.blocks.foreach(mark)
      i += 1
    }
    trees.iterator.filter(t => hit(t.block)).toSeq
  }

  // ------------------------------------------------------------------ build

  /** Index every profile: block users by one-pass clustering over long-term
    * categorical interest vectors, build one tree per (block, category), and
    * populate the chained hash table from each user's category-entity pairs.
    */
  def build(allProfiles: Iterable[UserProfile], maxBlocks: Int,
            blockThreshold: Double = OnePassClustering.DefaultThreshold): this.type = {
    val ordered = allProfiles.toSeq.sortBy(_.userId)
    val assignment = OnePassClustering.cluster(
      ordered.map(p => (p.userId, p.categoryVector)), maxBlocks, blockThreshold)
    ordered.foreach(p => profiles(p.userId) = p)
    blockOfUser ++= assignment
    // Rebuild running centroids for later new-user assignment.
    centroids.clear()
    val byBlock = ordered.groupBy(p => assignment(p.userId))
    val nBlocks = if (assignment.isEmpty) 0 else assignment.values.max + 1
    (0 until nBlocks).foreach { b =>
      val members = byBlock.getOrElse(b, Seq.empty)
      val dim = members.headOption.map(_.nCategories).getOrElse(nCategories)
      val cen = Array.ofDim[Double](dim)
      members.foreach { p => val v = p.categoryVector; var i = 0; while (i < dim) { cen(i) += v(i); i += 1 } }
      if (members.nonEmpty) { var i = 0; while (i < dim) { cen(i) /= members.size; i += 1 } }
      centroids += cen
    }
    (0 until nCategories).foreach { c =>
      forest(c) = (0 until nBlocks).map { b =>
        val entries = byBlock.getOrElse(b, Seq.empty)
          .map(p => (p.userId, Profiles.entryStats(p, c, params.mu, collection)))
        new SignatureTree(b, c, fanout).build(entries)
      }.to(ArrayBuffer)
    }
    ordered.foreach(p => linkPairs(p.entCount, Map.empty, blockOfUser(p.userId)))
    this
  }

  /** Link each category-entity pair of the entity counts `ent` that `before`
    * lacks, under `block`'s tree of the category. `before` is the same
    * profile's counts before a batch of ingests, or empty for a profile new
    * to the index; a flush only adds keys, to the maps it rebuilt.
    * @return the number of new triads.
    */
  private def linkPairs(ent: Map[Int, Map[Int, Double]], before: Map[Int, Map[Int, Double]],
                        block: Int): Int = {
    var fresh = 0
    if (ent ne before) ent.foreach { case (c, em) =>
      val had = before.getOrElse(c, null)
      if (em ne had) em.keysIterator.foreach { e =>
        if ((had == null || !had.contains(e)) && link(c, e, block)) fresh += 1
      }
    }
    fresh
  }

  // ------------------------------------------------------------------ query

  /** Algorithm 1 ([[SignatureTree.search]]) over the candidate trees.
    * `exact = true` searches every tree of the item's category (provably equal
    * to a sequential scan, by Lemmas 1–2); the default hash-located mode skips
    * blocks sharing no category-entity pair with the query. The search's
    * counts are added to `stats`.
    */
  def topK(q: ItemQuery, k: Int, exact: Boolean = false,
           stats: SearchStats = new SearchStats): Seq[(Long, Double)] = {
    val candidates = if (exact) forest(q.category).iterator else locateTrees(q).iterator
    SignatureTree.search(candidates.flatMap(_.root), q, k, params, collection, stats)
  }

  /** Sequential scan over every indexed profile with the same scorer — the
    * naive method of Section V, used as the ground truth for `topK`.
    */
  def scanTopK(q: ItemQuery, k: Int): Seq[(Long, Double)] = {
    val scorer = new Ranking.Scorer(q, params, collection)
    Ranking.topK(profiles.valuesIterator.map { p =>
      (p.userId, scorer.score(Profiles.entryStats(p, q.category, params.mu, collection)))
    }, k)
  }

  // ------------------------------------------------------------ maintenance

  /** Algorithm 2: apply a batch of profile updates, in two phases. First,
    * existing users have their events ingested and predictions refreshed;
    * their per-category leaf statistics are written into their block's trees,
    * after which each tree recomputes the IEntries above the changed leaves
    * once, bottom-up (the periodic maintenance of Section V-C). A category no
    * window flush fed keeps its leaf's impact lists and `invTot`
    * ([[Profiles.entryStatsAfter]]), so only `p_ℓ` and `p_s` move above it.
    * Then new users, in batch order, are blocked by best centroid cosine and
    * inserted into every tree of their block. The category-entity pairs a
    * flush added, and every pair of a new user, are linked in the hash table.
    *
    * @param updates each user's new events, one entry per user.
    * @param makeProfile builds a profile (incl. b-HMM training) for new users.
    */
  def applyUpdates(updates: Seq[(Long, Seq[CompactEvent])],
                   makeProfile: (Long, Seq[CompactEvent]) => UserProfile): UpdateReport = {
    require(updates.map(_._1).distinct.size == updates.size, "a user appears twice in one batch")
    var freshTriads = 0
    val counts = new RecomputeStats
    val (known, fresh) = updates.partition { case (u, _) => profiles.contains(u) }
    val refreshed = known.map { case (userId, events) =>
      val old = profiles(userId)
      val p = Profiles.refreshAfter(old, events.foldLeft(old)(Profiles.ingest))
      profiles(userId) = p
      freshTriads += linkPairs(p.entCount, old.entCount, blockOfUser(userId))
      (old, p)
    }
    refreshed.groupBy { case (old, _) => blockOfUser(old.userId) }.foreach { case (b, ps) =>
      (0 until nCategories).foreach { c =>
        val t = forest(c)(b)
        t.updateAll(ps.map { case (old, p) =>
          p.userId -> ((leaf: EntryStats) => Profiles.entryStatsAfter(old, leaf, p, c, params.mu, collection))
        }, counts)
      }
    }
    fresh.foreach { case (userId, events) =>
      val p = makeProfile(userId, events)
      profiles(userId) = p
      val v = p.categoryVector
      val b =
        if (centroids.isEmpty) { centroids += v.clone(); 0 }
        else centroids.indices.maxBy(i => OnePassClustering.cosine(centroids(i), v))
      blockOfUser(userId) = b
      (0 until nCategories).foreach { c =>
        val stats = Profiles.entryStats(p, c, params.mu, collection)
        if (b < forest(c).size) forest(c)(b).insert(userId, stats, counts)
        else forest(c) += new SignatureTree(b, c, fanout).build(Seq((userId, stats)))
      }
      freshTriads += linkPairs(p.entCount, Map.empty, b)
    }
    UpdateReport(known.size, fresh.size, freshTriads, counts.recomputes.toInt, counts.scalarRecomputes.toInt)
  }
}

object CppseIndex {
  /** Hash-table buckets (Section V-A) and tree fanout of every index ssRec builds. */
  val Buckets: Int = 2048
  val Fanout: Int = 8
}
