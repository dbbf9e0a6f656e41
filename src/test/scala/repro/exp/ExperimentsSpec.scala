package repro.exp

import repro.SparkSpec
import repro.eval.Protocol
import repro.socialdata.SocialData

/** Tiny-scale integration runs of every table/figure harness. Benches rerun
  * them at paper scale; here we assert structure and basic sanity so the
  * harnesses themselves are covered by `sbt test`.
  */
class ExperimentsSpec extends SparkSpec {
  private val cfg = SocialData.tiny
  private val ss = Experiments.defaultSs(cfg).copy(nBStates = 2, hmmIter = 10)
  private lazy val trained = Experiments.prepare(spark, cfg, ss)

  test("prepare: six partitions covering all interactions") {
    assert(trained.partitions.length == 6)
    val sizes = trained.partitions.map(_.length)
    assert(sizes.max - sizes.min <= 1)
  }

  test("prepare: a model per producer and per training user") {
    assert(trained.producers.size == cfg.nProducers)
    val trainUsers = (trained.partitions(0) ++ trained.partitions(1)).map(_.userId).toSet
    assert(trained.userModels.keySet == trainUsers)
    assert(trained.eventsByUser.keySet == trainUsers)
  }

  test("buildModel honours the requested window size") {
    val m = Experiments.buildModel(trained, ss.copy(windowCap = 7))
    assert(m.index.profiles.keySet == trained.userModels.keySet)
    m.index.profiles.values.foreach(p => assert(p.windowCap == 7 && p.window.size <= 7))
    // Same b-HMM objects as trained: profiles are replayed, not retrained.
    m.index.profiles.values.foreach(p => assert(p.model eq trained.userModels(p.userId)))
  }

  test("table2: rows per block budget, vocabularies shrink as blocks grow") {
    val rows = Experiments.table2(spark, cfg, ss, blockNums = Seq(1, 4, 8))
    assert(rows.map(_.blockNum) == Seq(1, 4, 8))
    assert(rows.head.actualBlocks == 1)
    assert(rows.last.maxEntityNum <= rows.head.maxEntityNum)
    assert(rows.last.maxProducerNum <= rows.head.maxProducerNum)
    rows.foreach(r => assert(r.maxEntityNum > 0 && r.maxProducerNum > 0))
  }

  test("table3: one row per dataset with consistent counts") {
    val rows = Experiments.table3(spark, Seq(cfg))
    assert(rows.size == 1)
    val r = rows.head
    assert(r.dataset == cfg.name && r.nItems == cfg.nItems && r.nProducers == cfg.nProducers)
  }

  test("fig5: accuracy rows per state group, all within [0,1]") {
    val rows = Experiments.fig5(spark, cfg.copy(plantedStatesMod8 = true), ss, maxStates = 3)
    assert(rows.nonEmpty)
    rows.foreach { r =>
      assert(r.group >= 1 && r.group <= 3)
      assert(r.accHmm >= 0 && r.accHmm <= 1 && r.accBiHmm >= 0 && r.accBiHmm <= 1)
      assert(r.users > 0)
    }
    // Across all users, BiHMM should not lose badly to HMM even at this tiny
    // scale (histories of ~40 events; the real comparison is the Fig-5 bench).
    val wH = rows.map(r => r.accHmm * r.users).sum / rows.map(_.users).sum
    val wB = rows.map(r => r.accBiHmm * r.users).sum / rows.map(_.users).sum
    assert(wB >= wH - 0.10, s"BiHMM $wB far below HMM $wH")
  }

  test("fig6: one row per window size with valid precisions") {
    val rows = Experiments.fig6(trained, ss, windows = Seq(2, 5), lambdas = Seq(0.3, 0.6), k = 5)
    assert(rows.map(_.window) == Seq(2, 5))
    rows.foreach { r =>
      assert(r.pAtK >= 0 && r.pAtK <= 1)
      assert(Seq(0.3, 0.6).contains(r.bestLambda))
    }
  }

  test("fig7: one row per lambda with valid precisions") {
    val rows = Experiments.fig7(trained, ss, window = 3, lambdas = Seq(0.2, 0.5, 0.8), k = 5)
    assert(rows.map(_.lambda) == Seq(0.2, 0.5, 0.8))
    rows.foreach(r => assert(r.pAtK >= 0 && r.pAtK <= 1))
  }

  test("sweepLambda at one lambda equals Protocol.evaluate on the exact index") {
    val ks = Seq(5, 10)
    val swept = Experiments.sweepLambda(Experiments.buildModel(trained, ss), trained.partitions,
                                        Seq(ss.lambdaS), ks)
    val exact = new Experiments.SsRecAdapter(Experiments.buildModel(trained, ss), "ssRec", exact = true)
    assert(swept(ss.lambdaS) == Protocol.evaluate(trained.partitions, exact, ks))
  }

  test("fig8: all four methods report every k") {
    val ks = Seq(5, 10)
    val rows = Experiments.fig8(trained, ss, cfg, ks)
    assert(rows.map(_.method) == Seq("ssRec", "ssRec-ne", "CTT", "UCD"))
    rows.foreach(r => ks.foreach(k => assert(r.pAtK(k) >= 0 && r.pAtK(k) <= 1)))
  }

  test("fig9: update and no-update variants both report") {
    val rows = Experiments.fig9(trained, ss, Seq(5))
    assert(rows.map(_.method) == Seq("ssRec", "ssRec-nu"))
    rows.foreach(r => assert(r.pAtK(5) >= 0 && r.pAtK(5) <= 1))
  }

  test("fig10: a timing row per accumulated partition with positive times") {
    val rows = Experiments.fig10(trained, ss, cfg, k = 10, sampleCap = 30)
    assert(rows.map(_.partitionsUsed) == Seq(1, 2, 3, 4))
    rows.foreach { r =>
      assert(r.ssRecMsPerItem > 0 && r.cttMsPerItem > 0 && r.ucdMsPerItem > 0)
    }
  }

  test("fig11: maintenance cost rows for growing batch sizes") {
    val rows = Experiments.fig11(trained, ss, sizes = Seq(50, 200))
    assert(rows.map(_.updateSize) == Seq(50, 200))
    rows.foreach(r => assert(r.millis > 0))
  }

  test("render produces an aligned table") {
    val s = Experiments.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = s.split("\n")
    assert(lines.head == "== T ==")
    assert(lines.drop(1).map(_.length).distinct.size == 1, "rows not aligned")
  }
}
