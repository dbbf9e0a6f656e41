package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Protocol
import repro.exp.Experiments
import repro.exp.Experiments.SsRecAdapter
import repro.socialdata.SocialData

/** Smoke test of the benchmark harness at `SocialData.tiny` scale. */
class HarnessSpec extends AnyFunSuite {

  private val workDir = Paths.get("target", "test-work").toAbsolutePath

  private def tinyOpts(workload: String, trace: Boolean) = Opts.forWorkload(workload).copy(
    seconds = 1.0, trace = trace, dataset = SocialData.tiny,
    setupRepeats = 1, checkItems = 10, probeItems = 40, warmupItems = 20,
    unitsPerS = if (workload == "maintain") 2.0 else 40.0, batch = 200, rate = 2000.0,
    microBatch = 50, streamBatches = 2, cores = 2, workDir = workDir)

  /** (name, unit) of every metric BENCHMARK.json declares under `section`. */
  private def declared(section: String): Seq[(String, String)] = {
    import org.json4s._
    val json = org.json4s.jackson.JsonMethods.parse(
      new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8"))
    (json \ section).children.map { m =>
      ((m \ "name").values.toString, (m \ "unit").values.toString)
    }
  }

  private lazy val outputs: Map[(String, Boolean), RunOutput] =
    (for (w <- Main.Workloads; t <- Seq(false, true)) yield (w, t) -> Bench.run(tinyOpts(w, t))).toMap

  test("every workload runs end to end, timed and traced, without failures") {
    outputs.foreach { case ((w, t), out) =>
      assert(out.correct, s"$w trace=$t failed: ${org.json4s.jackson.JsonMethods.compact(out.record \ "failures")}")
      assert(out.attempted >= 1 && out.failed == 0, s"$w trace=$t")
    }
  }

  test("every declared metric is emitted with its unit, and only those") {
    val endToEnd = declared("end_to_end")
    val perLayer = declared("per_layer")
    assert(endToEnd.nonEmpty && perLayer.nonEmpty)
    outputs.foreach { case ((w, t), out) =>
      val want = if (t) perLayer else endToEnd
      assert(out.metrics.map(m => (m._1, m._3)) == want, s"$w trace=$t")
      assert(out.metrics.forall(m => !m._2.isNaN && !m._2.isInfinite), s"$w trace=$t")
    }
    outputs.collect { case ((w, false), out) => w -> out }.foreach { case (w, out) =>
      out.metrics.foreach { case (n, v, _) => assert(v > 0.0, s"$w: end-to-end $n reads $v") }
    }
  }

  private def traced(w: String): Map[String, Double] =
    outputs((w, true)).metrics.map(x => x._1 -> x._2).toMap

  test("traced runs reach the layers their workload exercises") {
    val serve = traced("serve")
    assert(serve("index.exact_scan_agree_share") == 1.0)
    assert(serve("index.topk_fast_us_p50") > 0 && serve("index.topk_exact_us_p50") > 0)
    assert(serve("stream.recs_emitted") > 0 && serve("stream.knn_us_p50") > 0)
    val maintain = traced("maintain")
    assert(maintain("index.exact_scan_agree_share") == 1.0)
    assert(maintain("index.users_new") > 0, "held-out users must enter as new users")
    assert(maintain("index.leaf_updates") > 0)
    assert(maintain("index.ancestor_recomputes") >= maintain("index.distinct_dirty_ancestors"))
    val replay = traced("replay")
    assert(replay("eval.observe_batch_size_mean") > 0 && replay("eval.recommend_ms_p50") > 0)
  }

  test("the percentile helper gives known values on fixed inputs") {
    assert(Stats.percentile(Seq(1.0, 2.0, 3.0, 4.0), 0.5) == 2.5)
    assert(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    assert(math.abs(Stats.percentile((1 to 100).map(_.toDouble), 0.95) - 95.05) < 1e-9)
    assert(Stats.percentile(Seq(7.0), 0.95) == 7.0)
    assert(Stats.percentile(Seq.empty, 0.5) == 0.0)
    assert(Stats.mean(Seq(1.0, 2.0, 6.0)) == 3.0)
  }

  // Component tests share one session, started after the runs above have
  // stopped theirs.
  private lazy val spark: SparkSession = Setup.session(2, workDir)
  private lazy val in = Inputs.generate(spark, SocialData.tiny, new Tracer(false))
  private lazy val built = Setup.build(spark, in, Experiments.defaultSs(SocialData.tiny), _ => false,
                                       new Tracer(false))
  private def fresh() = Setup.buildModel(built._1, Experiments.defaultSs(SocialData.tiny),
                                         new Phases(new Tracer(false)))

  test("the open-loop driver charges queue wait behind a deliberately slow step") {
    val model = fresh()
    var first = true
    val slowFirst = (a: Arrival) => {
      if (first) { first = false; Thread.sleep(80) }
      Some(model.recommend(a.item, 30))
    }
    // 2,000 interactions/s: the next few items fall due during the 80 ms stall.
    val r = Replay.run(model, in, 30, 2000.0, seconds = 10.0, limit = 6, new Tracer(false),
                       new Ledger, step = slowFirst)
    assert(r.arrivals == 6)
    assert(r.itemMs.head >= 80.0)
    assert(r.waitMs.head < 20.0, "the first item starts on time")
    assert(r.waitMs(1) > 30.0, s"the second item must wait behind the stall: ${r.waitMs}")
    assert(r.itemMs.zip(r.waitMs).forall { case (l, w) => l >= w })
  }

  test("the replay driver's P@k equals Protocol.evaluate's on the same stream") {
    val replayed = Replay.run(fresh(), in, 30, Double.PositiveInfinity, seconds = 1e9,
                              limit = Int.MaxValue, new Tracer(false), new Ledger)
    assert(replayed.arrivals == in.arrivals.size)
    val evaluated = Protocol.evaluate(in.partitions, new SsRecAdapter(fresh(), "ssRec"), Seq(10, 30))
    assert(replayed.pAt10.value(10) == evaluated(10))
    spark.stop()
  }
}
