package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Protocol
import repro.exp.Trained
import repro.socialdata.{Interaction, Item, SocialConfig, SocialData}

/** An item arrival on the test stream, as `Protocol.evaluate` sees it: the
  * item at its first interaction, the users who interact with it in that
  * partition (the P@k ground truth) and its position in the test stream.
  */
final case class Arrival(item: Item, truth: Set[Long], pos: Int)

/** Generated inputs, materialised on the driver before any timed set-up.
  * Test interactions are partitions 2..5 of the six-way time split.
  */
final case class Inputs(cfg: SocialConfig, items: Array[Item], interactions: Array[Interaction]) {
  val partitions: IndexedSeq[Array[Interaction]] = Protocol.split(interactions.toSeq, 6)

  /** Test interactions in timestamp order, each with its partition index. */
  val test: IndexedSeq[(Interaction, Int)] =
    (2 until partitions.length).flatMap(p => partitions(p).sortBy(_.ts).map(_ -> p))

  /** Every item's first arrival across the test partitions. */
  val arrivals: IndexedSeq[Arrival] = {
    val truth = partitions.map(Protocol.truthOf)
    val seen = scala.collection.mutable.Set.empty[Long]
    test.indices.flatMap { i =>
      val (e, p) = test(i)
      if (!seen.add(e.itemId)) None
      else Some(Arrival(Item(e.itemId, e.ts, e.category, e.producerId, e.entities, zPlanted = -1),
                        truth(p).getOrElse(e.itemId, Set.empty), i))
    }
  }
}

object Inputs {
  def generate(spark: SparkSession, cfg: SocialConfig, tr: Tracer): Inputs = {
    val items = tr.span("socialdata.items")(SocialData.items(spark, cfg).collect())
    val interactions = tr.span("socialdata.interactions")(SocialData.interactions(spark, cfg).collect())
    Inputs(cfg, items, interactions)
  }
}

/** Seconds spent in each named set-up phase, in order; phases are also
  * traced when the tracer is on.
  */
final class Phases(tr: Tracer) {
  private val done = scala.collection.mutable.ArrayBuffer.empty[(String, Double)]

  def apply[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val r = tr.span(name)(body)
    done += name -> (System.nanoTime() - t0) / 1e9
    r
  }

  def seconds: Seq[(String, Double)] = done.toSeq
  def total: Double = done.map(_._2).sum
}

/** Everything that counts as set-up: SparkSession start, BiHMM training,
  * collection statistics, expansion mining, profile build and index build.
  */
object Setup {

  def session(cores: Int, workDir: java.nio.file.Path): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .config("spark.sql.streaming.checkpointLocation", workDir.resolve("checkpoints").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Train every reusable part (as `Experiments.prepare` does) and build the
    * model (as `Experiments.buildModel` does), timing each phase. Users for
    * whom `exclude` holds are left out of training and of the index.
    */
  def build(spark: SparkSession, in: Inputs, ss: SsRecConfig, exclude: Long => Boolean,
            tr: Tracer): (Trained, SsRecModel, Phases) = {
    import spark.implicits._
    val phase = new Phases(tr)
    val itemsDs = spark.createDataset(in.items.toSeq)
    val trainDs = spark.createDataset(
      (in.partitions(0) ++ in.partitions(1)).filterNot(i => exclude(i.userId)).toSeq)
    val producers = phase("core.bihmm.producers")(BiHmm.trainProducers(itemsDs, ss.bihmm))
    val zOfItem = producers.valuesIterator.flatMap(_.zOfItem).toMap
    val trainedProfiles = phase("core.bihmm.consumers")(
      BiHmm.trainConsumers(trainDs, zOfItem, ss.bihmm, ss.windowCap, ss.longSeqCap))
    val eventsByUser = phase("core.ssrec.collect_events")(SsRec.collectEvents(trainDs, zOfItem))
    val col = phase("core.ssrec.collection_stats")(SsRec.collectionStats(spark, itemsDs))
    val expansion = phase("core.entities.mine")(
      if (ss.expand) Entities.mine(spark, itemsDs.toDF()) else Entities.none)
    val trained = Trained(in.partitions, producers, zOfItem,
                          trainedProfiles.map { case (u, p) => u -> p.model },
                          eventsByUser, col, expansion)
    val model = buildModel(trained, ss, phase)
    (trained, model, phase)
  }

  /** `Experiments.buildModel`, split into its two timed phases. */
  def buildModel(t: Trained, ss: SsRecConfig, phase: Phases): SsRecModel = {
    val profiles = phase("core.profiles.build") {
      t.eventsByUser.map { case (u, ev) =>
        u -> Profiles.build(u, ev, t.userModels(u), ss.nCategories, ss.windowCap, ss.longSeqCap)
      }
    }
    phase("index.build") {
      SsRec.fromParts(profiles, t.eventsByUser, t.producers, t.col, t.expansion, t.zOfItem, ss)
    }
  }
}
