package repro.perfbench

import java.nio.file.{Path, Paths}
import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import repro.exp.Experiments
import repro.socialdata.SocialConfig

/** Settings of one run. The sizes are fixed here, per workload, by
  * [[Opts.forWorkload]]; the command line only names the workload, its seed,
  * the measured seconds and tracing, plus where and on how many cores to run.
  */
final case class Opts(
    workload: String,
    seed: Long = 42L,
    seconds: Double = 10.0,
    trace: Boolean = false,
    cores: Int = 4,
    workDir: Path = Paths.get("perfbench", "out", "work"),
    commit: String = "unknown",
    dataset: SocialConfig = Experiments.benchQuality,
    k: Int = 30,
    setupRepeats: Int = 3,
    checkItems: Int = 100,
    probeItems: Int = 1000,
    warmupItems: Int = 300,
    /** Units of work per measured second: answered arrivals on `serve`,
      * `observe` batches on `maintain` (set so the passes fill `seconds` on
      * the parent commit; `replay` is sized by `rate` instead).
      */
    unitsPerS: Double = 1600.0,
    batch: Int = 2000,
    holdoutMod: Int = 10,
    /** `replay`'s test interactions per second. */
    rate: Double = 120.0,
    microBatch: Int = 250,
    warmupBatches: Int = 1,
    streamBatches: Int = 4,
)

object Opts {

  def forWorkload(workload: String): Opts = workload match {
    case "maintain" => Opts(workload, unitsPerS = 1.0)
    case other => Opts(other)
  }

  /** `--name value` pairs; `--workload` is required. */
  def parse(args: Seq[String]): Opts = {
    require(args.length % 2 == 0, s"expected --name value pairs, got: ${args.mkString(" ")}")
    val kv = args.grouped(2).map(p => p(0) -> p(1)).toMap
    val workload = kv.getOrElse("--workload", throw new IllegalArgumentException("--workload is required"))
    kv.foldLeft(forWorkload(workload)) { case (o, (k, v)) =>
      k match {
        case "--workload" => o
        case "--seed" => o.copy(seed = v.toLong)
        case "--seconds" => o.copy(seconds = v.toDouble)
        case "--trace" => o.copy(trace = v == "1")
        case "--cores" => o.copy(cores = v.toInt)
        case "--work-dir" => o.copy(workDir = Paths.get(v))
        case "--commit" => o.copy(commit = v)
        case other => throw new IllegalArgumentException(s"unknown option $other")
      }
    }
  }
}

/** Result of one run: the contract line and the run record. */
final case class RunOutput(correct: Boolean, attempted: Long, failed: Long,
                           metrics: Seq[(String, Double, String)], record: JObject) {
  def resultLine: String = {
    metrics.foreach { case (n, v, _) => require(v.isFinite, s"metric $n is not finite: $v") }
    compact(render(
      ("correct" -> correct) ~ ("attempted" -> attempted) ~ ("failed" -> failed) ~
        ("metrics" -> JObject(metrics.map { case (n, v, u) => n -> (("value" -> v) ~ ("unit" -> u)) }: _*))))
  }
}

object Main {
  val Workloads: Seq[String] = Seq("serve", "maintain", "replay")

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args.toSeq)
    val out = Bench.run(o)
    val recordPath = o.workDir.getParent.resolve("runs")
      .resolve(s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json")
    java.nio.file.Files.createDirectories(recordPath.getParent)
    val record = compact(render(out.record))
    java.nio.file.Files.writeString(recordPath, record + "\n")
    println(record)
    println(out.resultLine)
  }
}

/** One benchmark run: session, inputs, timed set-ups each followed by a
  * measured pass, the correctness gates, then the metrics.
  */
object Bench {
  private val MB = 1024.0 * 1024.0
  private val Off = new Tracer(false)
  private val started = System.nanoTime()

  /** Progress on stderr, so stdout ends with the result line. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%7.2f s] $msg")

  def run(o: Opts): RunOutput = {
    require(Main.Workloads.contains(o.workload), s"unknown workload ${o.workload}")
    val tr = new Tracer(o.trace)
    val ledger = new Ledger
    val s0 = System.nanoTime()
    val spark = Setup.session(o.cores, o.workDir.toAbsolutePath)
    val sessionS = (System.nanoTime() - s0) / 1e9
    log(f"SparkSession started in $sessionS%.2f s")
    try body(spark, sessionS, o, tr, ledger)
    finally spark.stop()
  }

  private def body(spark: SparkSession, sessionS: Double, o: Opts, tr: Tracer,
                   ledger: Ledger): RunOutput = {
    val cfg = o.dataset
    val g0 = System.nanoTime()
    val in = Inputs.generate(spark, cfg, tr)
    val genS = (System.nanoTime() - g0) / 1e9
    log(f"generated ${cfg.name} (seed ${cfg.seed}) in $genS%.2f s")
    val ss = Experiments.defaultSs(cfg)
    // maintain leaves one tenth of the users out of the index, so they enter
    // through the new-user path.
    val exclude: Long => Boolean =
      if (o.workload == "maintain") u => u % o.holdoutMod == o.holdoutMod - 1 else _ => false
    val w = Workload(o, spark, in, ledger)

    // Each set-up is followed by one measured pass on the model it built, so
    // the passes spread over the whole run.
    var heapMb = 0.0
    var trained: repro.exp.Trained = null
    var jvmSetup = JvmSnapshot(0L, 0L)
    var jvmMain = JvmSnapshot(0L, 0L)
    val rounds = (1 to o.setupRepeats).map { i =>
      val j0 = JvmSnapshot.now()
      val (t, model, phases) = Setup.build(spark, in, ss, exclude, tr)
      jvmSetup = jvmSetup.plus(JvmSnapshot.now().minus(j0))
      trained = t
      log(f"set-up $i in ${phases.total}%.2f s")
      if (i == 1) {
        // Heap held by everything the model references, by walking its
        // object graph (deterministic, unlike used heap between two GCs).
        heapMb = org.apache.spark.util.SizeEstimator.estimate(model) / MB
        w.warmUp(Setup.buildModel(t, ss, new Phases(Off)))
      }
      System.gc()
      val j1 = JvmSnapshot.now()
      val p = w.pass(model, Off)
      jvmMain = jvmMain.plus(JvmSnapshot.now().minus(j1))
      log(s"pass $i: ${p.latencyMs.size} units")
      (phases.seconds, p)
    }
    val setups = rounds.map(_._1)
    val passes = rounds.map(_._2)
    // Every pass runs the same units. A unit's latency is its median over
    // the passes: a cost that recurs (a slow write delaying the next read,
    // steady GC) shows in most passes and stays; a stall of one pass drops.
    // Throughput is each pass's work over its busy time, median over passes.
    val n = passes.map(_.latencyMs.size).min
    val unitMs = (0 until n).map(i => Stats.median(passes.map(_.latencyMs(i))))
    val perSecond = passes.map(p => p.work.sum / math.max(1e-9, p.busyMs.sum / 1e3))
    val setupS = sessionS + Stats.median(setups.map(_.map(_._2).sum))
    ledger.record(passes.map(_.pAt10).distinct.size == 1,
                  s"P@10 differs between passes over the same inputs: ${passes.map(_.pAt10)}")

    // Traced runs: one more pass, traced, on a fresh model (plus the
    // streaming path on serve).
    val traced = if (!o.trace) None else {
      val p = w.pass(Setup.buildModel(trained, ss, new Phases(Off)), tr)
      val stream = if (o.workload == "serve") Some(w.stream(p.model, tr)) else None
      log("traced pass done")
      Some((p, stream))
    }
    val last = traced.map(_._1).getOrElse(passes.last)
    val checkSample = Query.sample(in.arrivals, o.checkItems).map(_.item)
    Query.scanCheck(last.model, checkSample, o.k, tr, ledger)
    log(s"checked ${checkSample.size} items against the scan")

    val endToEnd = Seq(
      ("setup_s", setupS, "s"),
      ("model_heap_mb", heapMb, "MB"),
      ("throughput_per_s", Stats.median(perSecond), "1/s"),
      ("latency_ms_p50", Stats.median(unitMs), "ms"),
      ("latency_ms_p95", Stats.percentile(unitMs, 0.95), "ms"),
      ("p_at_10", passes.head.pAt10, "ratio"),
    )
    val metrics = traced match {
      case None => endToEnd
      case Some((p, stream)) =>
        val untracedBusy = Stats.median(passes.map(_.busyMs.sum))
        Layers.metrics(tr, sessionS, setups, p, stream, untracedBusy, jvmSetup, jvmMain)
    }

    val record: JObject =
      ("workload" -> o.workload) ~
      ("workload_seed" -> o.seed) ~
      ("trace" -> o.trace) ~
      ("dataset" ->
        ("config" -> cfg.name) ~ ("seed" -> cfg.seed) ~ ("producers" -> cfg.nProducers) ~
        ("consumers" -> cfg.nConsumers) ~ ("categories" -> cfg.nCategories) ~
        ("entities" -> cfg.nEntities) ~ ("items" -> in.items.length) ~
        ("interactions" -> in.interactions.length) ~ ("test_interactions" -> in.test.size) ~
        ("arrivals" -> in.arrivals.size) ~
        ("indexed_users" -> trained.eventsByUser.size) ~
        ("users" -> in.interactions.iterator.map(_.userId).distinct.size)) ~
      ("settings" ->
        ("k" -> o.k) ~ ("seconds" -> o.seconds) ~ ("passes" -> o.setupRepeats) ~
        ("units_per_s" -> o.unitsPerS) ~ ("batch" -> o.batch) ~ ("holdout_mod" -> o.holdoutMod) ~
        ("replay_rate_per_s" -> o.rate) ~
        ("micro_batch" -> o.microBatch) ~ ("warmup_batches" -> o.warmupBatches) ~
        ("stream_batches" -> o.streamBatches) ~ ("warmup_items" -> o.warmupItems) ~
        ("probe_items" -> o.probeItems) ~ ("check_items" -> o.checkItems)) ~
      ("env" ->
        ("nproc" -> Runtime.getRuntime.availableProcessors()) ~ ("spark_master" -> spark.sparkContext.master) ~
        ("max_heap_mb" -> Runtime.getRuntime.maxMemory() / MB) ~
        ("java" -> System.getProperty("java.version")) ~ ("spark" -> spark.version) ~
        ("scala" -> scala.util.Properties.versionNumberString) ~ ("commit" -> o.commit)) ~
      ("generation_s" -> genS) ~
      ("samples" ->
        ("units_per_pass" -> passes.map(_.latencyMs.size)) ~ ("latency" -> unitMs.size) ~
        ("setups" -> setups.size) ~ ("scan_checks" -> checkSample.size) ~
        ("traced_spans" -> scala.collection.immutable.TreeMap(tr.spanCounts.toSeq: _*))) ~
      ("setup_s_each" -> setups.map(_.map(_._2).sum)) ~
      ("pass_busy_ms" -> passes.map(_.busyMs.sum)) ~
      ("pass_throughput_per_s" -> perSecond) ~
      ("end_to_end" -> JObject(endToEnd.map(m => m._1 -> JDouble(m._2)): _*)) ~
      ("attempted" -> ledger.attempted) ~
      ("failed" -> ledger.failed) ~
      ("failed_share" -> ledger.failed.toDouble / math.max(1L, ledger.attempted)) ~
      ("failures" -> ledger.firstFailures)
    if (o.trace)
      tr.writeJsonLines(o.workDir.getParent.resolve("runs").resolve(s"${o.workload}-seed${o.seed}-spans.jsonl"))
    RunOutput(ledger.failed == 0, ledger.attempted, ledger.failed, metrics, record)
  }
}
