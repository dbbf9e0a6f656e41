package repro.stream

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core._
import repro.index.SignatureTree
import repro.socialdata.{Interaction, Item}

/** Per-user snapshot emitted by the profile-tracking operator after each
  * micro-batch touching that user.
  */
final case class ProfileSnapshot(userId: Long, windowSize: Int, longTermCount: Double,
                                 topCategory: Int, flushes: Long)

/** One recommendation emitted by the matching operator. */
final case class Rec(itemId: Long, userId: Long, score: Double, rank: Int)

/** Structured Streaming serving layer of ssRec. The paper deploys over Apache
  * Storm with one bolt per category (Section VI-D); here each role maps to a
  * stateful operator:
  *
  *  - [[trackProfiles]] — the user-interaction stream keyed by consumer, with
  *    the short-term window / long-term flush semantics of Section IV-B kept
  *    in `flatMapGroupsWithState` state;
  *  - [[recommendStream]] — the item stream keyed by category, each group
  *    holding that category's extended signature tree as state (the per-bolt
  *    CPPse partition) and answering the Algorithm-1 KNN per arriving item;
  *  - [[categoryTraffic]] — a windowed aggregation over item arrivals.
  */
object StreamingRec {

  /** Mutable-free tracking state: the short-term window plus long-term
    * per-category counts (the CPPse pair, minus the model-side statistics that
    * live in the batch-trained profiles).
    */
  final case class TrackState(window: Vector[CompactEvent],
                              catCount: Map[Int, Double],
                              flushes: Long)

  /** Window/flush update shared with [[repro.core.Profiles.ingest]] semantics. */
  private[stream] def advance(s: TrackState, e: CompactEvent, cap: Int): TrackState =
    if (s.window.size < cap) s.copy(window = s.window :+ e)
    else {
      var cc = s.catCount
      s.window.foreach(w => cc += w.category -> (cc.getOrElse(w.category, 0.0) + 1.0))
      TrackState(Vector(e), cc, s.flushes + 1)
    }

  /** Stateful user-profile tracking over the interaction stream. Emits one
    * snapshot per (user, micro-batch).
    */
  def trackProfiles(events: Dataset[Interaction], windowCap: Int): Dataset[ProfileSnapshot] = {
    val spark = events.sparkSession
    import spark.implicits._
    implicit val stateEnc: Encoder[TrackState] = Encoders.kryo[TrackState]
    events.groupByKey(_.userId)
      .flatMapGroupsWithState[TrackState, ProfileSnapshot](
        OutputMode.Update(), GroupStateTimeout.NoTimeout()) {
        (userId: Long, rows: Iterator[Interaction], state: GroupState[TrackState]) =>
          val init = state.getOption.getOrElse(TrackState(Vector.empty, Map.empty, 0L))
          val next = rows.toSeq.sortBy(_.ts).foldLeft(init) { (s, i) =>
            advance(s, CompactEvent(i.category, i.producerId, i.entities, 0), windowCap)
          }
          state.update(next)
          val top =
            if (next.catCount.isEmpty) next.window.lastOption.map(_.category).getOrElse(-1)
            else next.catCount.maxBy { case (c, n) => (n, -c) }._1
          Iterator.single(ProfileSnapshot(
            userId, next.window.size, next.catCount.values.sum, top, next.flushes))
      }
  }

  /** The per-category matching state: that category's signature tree over all
    * indexed users, plus the scoring context.
    */
  final case class CatState(tree: SignatureTree, prm: RankParams, col: CollectionStats)

  /** Build the initial per-category states from a trained model by bulk
    * loading one tree per category over every profile (the single-block
    * layout — the streaming operator partitions users by category group, so
    * block-level pruning is already provided by the grouping).
    */
  def initialCatStates(model: SsRecModel): Seq[(Int, CatState)] = {
    val col = model.index.collection
    val prm = model.index.params
    (0 until model.cfg.nCategories).map { c =>
      val entries = model.index.profiles.values.toSeq.sortBy(_.userId)
        .map(p => (p.userId, Profiles.entryStats(p, c, prm.mu, col)))
      c -> CatState(new SignatureTree(0, c, model.index.fanout).build(entries), prm, col)
    }
  }

  /** Stateful item matching: items keyed by category, each group answering
    * the top-k query against its signature tree (Algorithm 1).
    */
  def recommendStream(items: Dataset[Item], model: SsRecModel, k: Int): Dataset[Rec] = {
    val spark = items.sparkSession
    import spark.implicits._
    implicit val stateEnc: Encoder[CatState] = Encoders.kryo[CatState]
    val expansion = model.expansion
    val expand = model.cfg.expand
    // CatState holds the signature tree — no Catalyst encoder exists for it,
    // so the initial-state dataset uses an explicit (Int, kryo) tuple encoder.
    val tupleEnc: Encoder[(Int, CatState)] = Encoders.tuple(Encoders.scalaInt, stateEnc)
    val init = spark.createDataset(initialCatStates(model))(tupleEnc)
      .groupByKey(_._1)(Encoders.scalaInt).mapValues(_._2)(stateEnc)
    items.groupByKey(_.category)
      .flatMapGroupsWithState[CatState, Rec](
        OutputMode.Append(), GroupStateTimeout.NoTimeout(), init) {
        (_: Int, rows: Iterator[Item], state: GroupState[CatState]) =>
          state.getOption match {
            case None => Iterator.empty // category unseen at training time
            case Some(cs) =>
              rows.toSeq.sortBy(_.ts).iterator.flatMap { v =>
                val q = Ranking.queryOf(v.itemId, v.category, v.producerId, v.entities,
                                        expansion, expand)
                cs.tree.knn(q, k, cs.prm, cs.col).zipWithIndex.map {
                  case ((u, s), r) => Rec(v.itemId, u, s, r + 1)
                }
              }
          }
      }
  }

  /** Windowed aggregation over the item stream: arrivals per (time window,
    * category) — the stream-side traffic statistic.
    */
  def categoryTraffic(items: Dataset[Item], windowDuration: String): Dataset[(Long, Int, Long)] = {
    val spark = items.sparkSession
    import spark.implicits._
    items
      .withColumn("eventTime", to_timestamp(from_unixtime(col("ts"))))
      .groupBy(window(col("eventTime"), windowDuration), col("category"))
      .agg(count(lit(1)).as("n"))
      .select(unix_timestamp(col("window.start")).as("windowStart"),
              col("category"), col("n"))
      .as[(Long, Int, Long)]
  }
}
