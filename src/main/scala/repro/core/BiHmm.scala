package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import repro.hmm.{Hmm, IoHmm}
import repro.socialdata.{Interaction, Item}

/** BiHMM hyper-parameters: `nAStates` = producer (a-HMM) hidden states (the
  * fixed global state vocabulary), `nBStates` = consumer (b-HMM) hidden states,
  * over `nCategories` observation symbols.
  */
final case class BiHmmConfig(nCategories: Int, nBStates: Int = 3, maxIter: Int = 30) { def nAStates: Int = 3 }

/** A trained a-HMM for one producer, the Viterbi-decoded hidden state of every
  * item the producer created, a trailing category window for decoding the
  * states of items that arrive later on the stream, and the map from this
  * producer's raw state labels to the *global* state vocabulary (raw
  * Baum-Welch labels are arbitrary per producer; the b-HMM conditions on the
  * globally aligned labels).
  */
final case class ProducerModel(producerId: Long, hmm: Hmm,
                               zOfItem: Map[Long, Int], recentCats: Vector[Int],
                               stateMap: Array[Int])

/** Driver-side tracker that decodes the producer hidden state of *new* stream
  * items by extending the producer's trailing category window and re-running
  * Viterbi over it. Unknown producers decode to state 0.
  */
final class ProducerTracker(initial: Map[Long, ProducerModel]) extends Serializable {
  private val recent = scala.collection.mutable.Map.empty[Long, Vector[Int]] ++
    initial.view.mapValues(_.recentCats).toMap
  private val hmms = initial.view.mapValues(m => (m.hmm, m.stateMap)).toMap

  /** Decode the (globally aligned) hidden state under which `producerId`
    * created an item of `category`, advancing the producer's trailing window.
    */
  def zFor(producerId: Long, category: Int): Int = hmms.get(producerId) match {
    case Some((h, stateMap)) =>
      val win = (recent.getOrElse(producerId, Vector.empty) :+ category).takeRight(BiHmm.ProducerWindow)
      recent(producerId) = win
      stateMap(h.viterbi(win).last)
    case None => 0
  }
}

/** Training pipelines for the two BiHMM layers. Both decompose over Spark as
  * one group per producer / per consumer (`groupByKey.mapGroups`): each
  * history is small, the population is large.
  */
object BiHmm {

  /** Trailing categories per producer that Viterbi decodes new items over. */
  val ProducerWindow: Int = 50

  private implicit def kryo[T](implicit ct: scala.reflect.ClassTag[T]): Encoder[T] =
    Encoders.kryo[T](ct)

  /** Intermediate per-producer training result before global state alignment
    * (public: the Kryo encoder rejects non-public classes).
    */
  final case class RawProducer(producerId: Long, hmm: Hmm,
                               itemIds: Array[Long], path: Array[Int],
                               recentCats: Vector[Int])

  /** Train the a-HMM layer: one classic HMM per producer over its item
    * category sequence (multi-restart Baum-Welch), Viterbi-decode the hidden
    * state of every item, then align state labels *across producers* by
    * one-pass clustering of the state emission signatures — raw Baum-Welch
    * labels are arbitrary per run, but the b-HMM needs `Z_k` to mean the same
    * thing regardless of which producer emitted the item.
    */
  def trainProducers(items: Dataset[Item], cfg: BiHmmConfig): Map[Long, ProducerModel] = {
    val raw = items.groupByKey(_.producerId)(Encoders.scalaLong).mapGroups { (p, it) =>
      val sorted = it.toArray.sortBy(_.ts)
      val cats = sorted.map(_.category).toIndexedSeq
      val hmm = Hmm.canonicalize(
        Hmm.trainBest(cats, cfg.nAStates, cfg.nCategories, cfg.maxIter, seed = 7 + p))
      RawProducer(p, hmm, sorted.map(_.itemId), hmm.viterbi(cats), cats.takeRight(ProducerWindow).toVector)
    }.collect()
    // Global state vocabulary: cluster all (producer, state) emission rows by
    // cosine into at most nAStates groups; the cluster id is the aligned label.
    val rows = raw.flatMap { r =>
      r.hmm.b.zipWithIndex.map { case (em, j) => (r.producerId * cfg.nAStates + j, em) }
    }.toSeq
    val clusterOf = repro.index.OnePassClustering.cluster(rows, maxBlocks = cfg.nAStates,
                                                          threshold = 0.5)
    raw.map { r =>
      val stateMap = Array.tabulate(r.hmm.nStates)(j => clusterOf(r.producerId * cfg.nAStates + j))
      ProducerModel(r.producerId, r.hmm,
                    r.itemIds.zip(r.path.map(stateMap)).toMap,
                    r.recentCats, stateMap)
    }.map(m => m.producerId -> m).toMap
  }

  /** Convert a user's temporally-ordered interactions into profile events,
    * attaching each item's decoded producer state.
    */
  def toEvents(hist: Seq[Interaction], zOfItem: Long => Int): Seq[CompactEvent] =
    hist.sortBy(_.ts).map(i => CompactEvent(i.category, i.producerId, i.entities, zOfItem(i.itemId)))

  /** Train one consumer's b-HMM over the (decoded producer state, category)
    * pair sequence and build the full profile from the same history.
    */
  def trainConsumer(userId: Long, events: Seq[CompactEvent], cfg: BiHmmConfig,
                    windowCap: Int, longSeqCap: Int = Profiles.LongSeqCap): UserProfile = {
    val obs = events.map(e => (e.zHat, e.category)).toIndexedSeq
    val model = IoHmm.train(obs, cfg.nBStates, cfg.nAStates, cfg.nCategories, cfg.maxIter, seed = 11 + userId)
    Profiles.build(userId, events, model, cfg.nCategories, windowCap, longSeqCap)
  }

  /** Train the b-HMM layer for every consumer in parallel. `zOfItem` is the
    * union of all producers' decoded item states (broadcast via the closure —
    * it is a small map, one entry per training item).
    */
  def trainConsumers(interactions: Dataset[Interaction], zOfItem: Map[Long, Int],
                     cfg: BiHmmConfig, windowCap: Int,
                     longSeqCap: Int = Profiles.LongSeqCap): Map[Long, UserProfile] = {
    interactions.groupByKey(_.userId)(Encoders.scalaLong).mapGroups { (u, it) =>
      val events = toEvents(it.toSeq, id => zOfItem.getOrElse(id, 0))
      trainConsumer(u, events, cfg, windowCap, longSeqCap)
    }.collect().map(p => p.userId -> p).toMap
  }
}
