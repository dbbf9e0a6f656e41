package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.SsRecModel

/** One measured pass of a workload: a fixed sequence of units of work (an
  * arrival answered in both modes, an `observe` batch, or an item replayed),
  * with each unit's latency, busy time and amount of work (pairs,
  * interactions, events).
  */
final case class PassResult(
    model: SsRecModel,
    latencyMs: IndexedSeq[Double],
    busyMs: IndexedSeq[Double],
    work: IndexedSeq[Double],
    pAt10: Double,
    query: Option[QueryResult] = None,
    replay: Option[Replay.Result] = None,
)

/** The workloads' measured passes (README.md says why each exists). */
final case class Workload(o: Opts, spark: SparkSession, in: Inputs, ledger: Ledger) {
  private val Off = new Tracer(false)

  /** Seconds of measurement each pass is sized for. */
  private def passSeconds: Double = o.seconds / o.setupRepeats

  /** Units of work in one pass. */
  private def units: Int = math.max(1, (passSeconds * o.unitsPerS).round.toInt)

  /** `serve`: the test stream's arrivals in a seeded order; each pass
    * answers the first `units` of them, wrapping around.
    */
  val served: IndexedSeq[Arrival] = new scala.util.Random(o.seed).shuffle(in.arrivals)

  /** `maintain`: the arrivals whose fast answers give P@10 after a pass, a
    * seeded sample of the test stream's arrivals.
    */
  val probed: IndexedSeq[Arrival] =
    new scala.util.Random(o.seed).shuffle(in.arrivals.indices.toVector)
      .take(o.probeItems).sorted.map(in.arrivals)

  /** `maintain`: the interactions each pass observes, the first whole
    * batches of the test stream.
    */
  val window: IndexedSeq[repro.socialdata.Interaction] =
    in.test.take(math.max(1, math.min(units, in.test.size / o.batch)) * o.batch).map(_._1)

  /** Untimed JIT warm-up of the timed code paths, on a throw-away model. */
  def warmUp(spare: SsRecModel): Unit = {
    Query.run(spare, in.arrivals, o.k, o.warmupItems, Off, ledger)
    if (o.workload != "serve")
      Observe.call(spare, in.test.take(o.warmupItems).map(_._1), -1L, Off, ledger)
  }

  /** One pass on `model`, which it may change. */
  def pass(model: SsRecModel, tr: Tracer): PassResult = o.workload match {
    case "serve" =>
      val q = Query.run(model, served, o.k, units, tr, ledger)
      val pairs = q.pairMs.toIndexedSeq
      PassResult(model, pairs, pairs, pairs.map(_ => 1.0), q.pAt10.value(10), query = Some(q))
    case "maintain" =>
      val batches = Maintain.run(model, window, o.batch, tr, ledger).toIndexedSeq
      val ms = batches.map(_._1)
      PassResult(model, ms, ms, batches.map(_._2.toDouble), Query.pAt10(model, probed, o.k, ledger))
    case "replay" =>
      val r = Replay.run(model, in, o.k, o.rate, passSeconds, Int.MaxValue, tr, ledger, Some(o.seed))
      PassResult(model, r.itemMs.toIndexedSeq, r.itemBusyMs.toIndexedSeq, r.itemEvents.toIndexedSeq,
                 r.pAt10.value(10), replay = Some(r))
  }

  /** The streaming path over the frozen `model`: traced serve runs only. */
  def stream(model: SsRecModel, tr: Tracer): StreamRun.Result = {
    val dir = o.workDir.toAbsolutePath.resolve("checkpoints").resolve(s"stream-${System.nanoTime()}")
    StreamRun.run(spark, model, in.arrivals, o.k, o.microBatch, o.warmupBatches, o.streamBatches,
                  Query.sample(in.arrivals, o.checkItems).map(_.item.itemId).toSet, dir, tr, ledger)
  }
}
