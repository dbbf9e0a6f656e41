package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.index.{CppseIndex, OnePassClustering, UpdateReport}
import repro.socialdata.{Interaction, Item}
import scala.annotation.unused

/** The ssRec settings the evaluation varies (DESIGN.md lists the fixed rest).
  * The defaults are the paper's tuned values: `windowCap = 5` (Fig. 6),
  * `λ_s = 0.4` on YTube-like data (Fig. 7).
  */
final case class SsRecConfig(
    nCategories: Int,
    windowCap: Int = 5,
    lambdaS: Double = 0.4,
    nBStates: Int = 3,
    maxBlocks: Int = 10,
    blockThreshold: Double = OnePassClustering.DefaultThreshold,
    expand: Boolean = true,
    hmmIter: Int = 30,
) {
  /** The fixed [[Ranking.Mu]] and [[Profiles.LongSeqCap]]. */
  def mu: Double = Ranking.Mu
  def longSeqCap: Int = Profiles.LongSeqCap
  def params: RankParams = RankParams(lambdaS, mu)
  def bihmm: BiHmmConfig = BiHmmConfig(nCategories, nBStates, hmmIter)
}

/** A trained ssRec model: the CPPse-index over all user profiles, the mined
  * entity-expansion table, the a-HMM layer (for decoding producer states of
  * new stream items), and the raw training events (kept so parameter sweeps
  * can rebuild profiles under a different window size without re-running
  * Baum-Welch).
  */
final class SsRecModel(
    val index: CppseIndex,
    val expansion: EntityExpansion,
    val tracker: ProducerTracker,
    val eventsByUser: Map[Long, Seq[CompactEvent]],
    val cfg: SsRecConfig,
) extends Serializable {

  /** Decoded producer hidden state per item; extended lazily as new items
    * arrive on the stream.
    */
  private val zCache = scala.collection.mutable.Map.empty[Long, Int]

  /** Producer state under which `item` was created: cached for training items,
    * decoded online (a-HMM Viterbi over the producer's trailing categories)
    * for new ones.
    */
  def zOf(item: Item): Int = {
    checkCategory(item.category, s"item ${item.itemId}")
    zCache.getOrElseUpdate(item.itemId, tracker.zFor(item.producerId, item.category))
  }

  private[core] def seedZCache(z: Map[Long, Int]): Unit = zCache ++= z

  /** Reject a category outside `[0, nCategories)` before any state changes. */
  private def checkCategory(c: Int, of: => String): Unit =
    require(c >= 0 && c < cfg.nCategories,
            s"$of: category $c outside [0, ${cfg.nCategories})")

  /** Encode an item as a matching query (with expansion unless disabled —
    * disabling reproduces the ssRec-ne variant).
    */
  def queryOf(item: Item): ItemQuery = {
    checkCategory(item.category, s"item ${item.itemId}")
    Ranking.queryOf(item.itemId, item.category, item.producerId, item.entities,
                    expansion, cfg.expand)
  }

  /** Top-k users for an incoming item via the CPPse-index (Algorithm 1). */
  def recommend(item: Item, k: Int, exact: Boolean = false): Seq[(Long, Double)] =
    index.topK(queryOf(item), k, exact)

  /** Top-k by sequential scan — the naive method, for tests and baselines. */
  def scanRecommend(item: Item, k: Int): Seq[(Long, Double)] =
    index.scanTopK(queryOf(item), k)

  /** Long-term/short-term score components of every user against an item —
    * lets parameter sweeps recombine with any λ_s without rescoring. Read
    * from the leaves of the item's category, whose trees hold each user once.
    */
  def componentsAll(item: Item): Array[(Long, Double, Double)] = {
    val q = queryOf(item)
    val scorer = new Ranking.Scorer(q, index.params, index.collection)
    index.treesOfCategory(q.category).iterator.flatMap(_.leaves).map { case (u, s) =>
      (u, scorer.longTerm(s), scorer.shortTerm(s))
    }.toArray
  }

  /** Ingest a batch of observed interactions (Algorithm 2 maintenance): the
    * short-term windows advance, long-term lists absorb flushed windows,
    * BiHMM predictions refresh, and the index trees/hash table are updated.
    * New users get a freshly trained b-HMM over their few events. The whole
    * batch is rejected, before any state changes, if one of its categories is
    * out of range.
    */
  def observe(batch: Seq[Interaction]): UpdateReport = {
    batch.foreach(i => checkCategory(i.category, s"interaction of user ${i.userId} with item ${i.itemId}"))
    val byUser = batch.groupBy(_.userId).toSeq.sortBy(_._1)
    val updates = byUser.map { case (u, is) =>
      val events = is.sortBy(_.ts).map { i =>
        val z = zCache.getOrElseUpdate(i.itemId, tracker.zFor(i.producerId, i.category))
        CompactEvent(i.category, i.producerId, i.entities, z)
      }
      (u, events: Seq[CompactEvent])
    }
    index.applyUpdates(updates, (userId, events) =>
      BiHmm.trainConsumer(userId, events, cfg.bihmm, cfg.windowCap))
  }
}

/** Training pipeline of the ssRec framework (Fig. 1 of the paper):
  * a-HMM layer per producer → b-HMM per consumer → profiles → expansion
  * table → CPPse-index.
  */
object SsRec {

  /** Collection background statistics for Dirichlet smoothing, computed with
    * DataFrame aggregations over the item stream.
    */
  def collectionStats(@unused spark: SparkSession, items: Dataset[Item]): CollectionStats = {
    val df = items.toDF()
    val prodRows = df.groupBy("producerId").agg(count(lit(1)).as("n")).collect()
    val prodTotal = prodRows.map(_.getLong(1)).sum.toDouble
    val entRows = df.select(explode(col("entities")).as("entity"))
      .groupBy("entity").agg(count(lit(1)).as("n")).collect()
    val entTotal = entRows.map(_.getLong(1)).sum.toDouble
    CollectionStats(
      prodRows.map(r => r.getLong(0) -> r.getLong(1) / math.max(1.0, prodTotal)).toMap,
      entRows.map(r => r.getInt(0) -> r.getLong(1) / math.max(1.0, entTotal)).toMap,
      prodRows.length.toLong, entRows.length.toLong)
  }

  /** Train the full model from the item stream and the training slice of the
    * interaction stream.
    */
  def train(spark: SparkSession, items: Dataset[Item],
            interactions: Dataset[Interaction], cfg: SsRecConfig): SsRecModel = {
    val producers = BiHmm.trainProducers(items, cfg.bihmm)
    val zOfItem = producers.valuesIterator.flatMap(_.zOfItem).toMap
    val profiles = BiHmm.trainConsumers(interactions, zOfItem, cfg.bihmm, cfg.windowCap)
    val eventsByUser = collectEvents(interactions, zOfItem)
    val col = collectionStats(spark, items)
    val expansion = if (cfg.expand) Entities.mine(spark, items.toDF()) else Entities.none
    fromParts(profiles, eventsByUser, producers, col, expansion, zOfItem, cfg)
  }

  /** Per-user temporally-ordered training events with decoded producer states. */
  def collectEvents(interactions: Dataset[Interaction],
                    zOfItem: Map[Long, Int]): Map[Long, Seq[CompactEvent]] = {
    interactions.collect().groupBy(_.userId).map { case (u, is) =>
      u -> BiHmm.toEvents(is.toSeq, id => zOfItem.getOrElse(id, 0))
    }
  }

  /** Assemble a model from already-trained parts (used by sweeps that reuse
    * the b-HMMs but change window size / λ_s / expansion).
    */
  def fromParts(profiles: Map[Long, UserProfile], eventsByUser: Map[Long, Seq[CompactEvent]],
                producers: Map[Long, ProducerModel], col: CollectionStats,
                expansion: EntityExpansion, zOfItem: Map[Long, Int],
                cfg: SsRecConfig): SsRecModel = {
    val index = new CppseIndex(CppseIndex.Buckets, CppseIndex.Fanout, cfg.params, col, cfg.nCategories)
      .build(profiles.values, cfg.maxBlocks, cfg.blockThreshold)
    val model = new SsRecModel(index, expansion, new ProducerTracker(producers), eventsByUser, cfg)
    model.seedZCache(zOfItem)
    model
  }
}
