package repro.stream

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core._
import repro.index.SignatureTree
import repro.socialdata.Item

/** One recommendation emitted by the matching operator. */
final case class Rec(itemId: Long, userId: Long, score: Double, rank: Int)

/** Structured Streaming serving layer of ssRec. The paper deploys over Apache
  * Storm with one bolt per category (Section VI-D); here that role maps to one
  * stateful operator, [[recommendStream]]: the item stream keyed by category,
  * each group holding that category's extended signature tree as state (the
  * per-bolt CPPse partition) and answering the Algorithm-1 KNN per arriving
  * item.
  */
object StreamingRec {

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
}
