package repro.core

import repro.SparkSpec
import repro.eval.Protocol
import repro.exp.Experiments
import repro.socialdata.SocialData
import scala.util.Random

class SsRecSpec extends SparkSpec {
  private val cfg = SocialData.tiny
  private val ss = SsRecConfig(nCategories = cfg.nCategories, nBStates = 2,
                               maxBlocks = 4, hmmIter = 15)
  private lazy val trained = Experiments.prepare(spark, cfg, ss)
  private lazy val partitions = trained.partitions
  /** A fresh model over `partitions(0) ++ partitions(1)`, for tests that observe. */
  private def fresh(): SsRecModel = Experiments.buildModel(trained, ss)
  private lazy val model = fresh()
  private lazy val testItems = Protocol.itemStream(partitions(2))

  test("training indexes every training user") {
    val users = (partitions(0) ++ partitions(1)).map(_.userId).toSet
    assert(model.index.profiles.keySet == users)
  }

  test("collection stats are normalized distributions") {
    val col = model.index.collection
    assert(math.abs(col.bgProd.values.sum - 1.0) < 1e-9)
    assert(math.abs(col.bgEnt.values.sum - 1.0) < 1e-9)
  }

  test("recommend returns at most k distinct users, scores descending") {
    testItems.take(10).foreach { v =>
      val recs = model.recommend(v, 5, exact = true)
      assert(recs.size <= 5)
      assert(recs.map(_._1).distinct.size == recs.size)
      val scores = recs.map(_._2)
      assert(scores == scores.sorted(Ordering[Double].reverse))
    }
  }

  test("index recommendation equals the sequential scan (exact mode)") {
    testItems.take(25).foreach { v =>
      val got = model.recommend(v, 8, exact = true)
      val want = model.index.scanTopK(model.queryOf(v), 8)
      assert(got == want, s"item ${v.itemId}: index=$got scan=$want")
    }
  }

  test("fast mode recall against exact mode is substantial") {
    var inter = 0; var total = 0
    testItems.take(40).foreach { v =>
      val fast = model.recommend(v, 10).map(_._1).toSet
      val exact = model.recommend(v, 10, exact = true).map(_._1).toSet
      inter += (fast & exact).size; total += exact.size
    }
    assert(inter.toDouble / total > 0.6, s"recall ${inter.toDouble / total}")
  }

  test("zOf is cached and deterministic for new items") {
    val v = testItems.head
    val z1 = model.zOf(v)
    val z2 = model.zOf(v)
    assert(z1 == z2 && z1 >= 0 && z1 < ss.bihmm.nAStates)
  }

  test("queryOf uses the expansion table only when enabled") {
    val v = testItems.find(_.entities.nonEmpty).get
    val qOn = model.queryOf(v)
    val qOff = Ranking.queryOf(v.itemId, v.category, v.producerId, v.entities,
                               model.expansion, expand = false)
    assert(qOn.entityIds.length >= qOff.entityIds.length)
  }

  test("observe ingests events and reports updated users") {
    val m = fresh()
    val batch = partitions(2).take(80).toSeq
    val users = batch.map(_.userId).toSet
    val before = users.toSeq.map(u => m.index.profiles.get(u).map(p => p.totalLong + p.window.size).getOrElse(0.0)).sum
    val report = m.observe(batch)
    assert(report.updatedUsers + report.newUsers == users.size)
    val after = users.toSeq.map(u => m.index.profiles(u)).map(p => p.totalLong + p.window.size).sum
    assert(after == before + batch.size)
  }

  test("observe keeps index equal to scan") {
    val m = fresh()
    m.observe(partitions(2).toSeq)
    Protocol.itemStream(partitions(3)).take(15).foreach { v =>
      val got = m.recommend(v, 6, exact = true)
      val want = m.index.scanTopK(m.queryOf(v), 6)
      assert(got == want, s"item ${v.itemId}: index=$got scan=$want")
    }
  }

  test("ssRec-ne (no expansion) produces different rankings on some items") {
    val ne = Experiments.buildModel(trained, ss.copy(expand = false))
    assert(ne.expansion.exp.isEmpty)
    val differs = testItems.take(40).exists { v =>
      model.recommend(v, 10, exact = true).map(_._1) != ne.recommend(v, 10, exact = true).map(_._1)
    }
    assert(differs, "expansion never changed any ranking")
  }

  test("out-of-range categories are rejected at the model boundary") {
    val m = fresh()
    val v = testItems.head
    Seq(-1, ss.nCategories).foreach { c =>
      val bad = v.copy(category = c)
      val e = intercept[IllegalArgumentException](m.recommend(bad, 5))
      assert(e.getMessage.contains(s"category $c outside [0, ${ss.nCategories})"))
      intercept[IllegalArgumentException](m.index.scanTopK(m.queryOf(bad), 5))
    }
    // An item unseen by the model, so observing it decodes its producer state.
    val good = partitions(2).head.copy(itemId = 1000000L)
    val u = good.userId
    val profileBefore = m.index.profiles.get(u)
    val badBatch = Seq(good, good.copy(itemId = 1000001L, category = ss.nCategories))
    val e = intercept[IllegalArgumentException](m.observe(badBatch))
    assert(e.getMessage.contains(s"category ${ss.nCategories}"))
    assert(m.index.profiles.get(u) == profileBefore, "rejected batch changed a profile")
    // The producer's state window was left untouched: a valid interaction
    // with the same producer is still observed.
    val report = m.observe(Seq(good))
    assert(report.updatedUsers + report.newUsers == 1)
    val size = (p: UserProfile) => p.totalLong + p.window.size
    assert(size(m.index.profiles(u)) == profileBefore.map(size).getOrElse(0.0) + 1)
    assert(m.recommend(v, 5, exact = true) == m.index.scanTopK(m.queryOf(v), 5))
  }

  test("componentsAll covers every user and matches the scan score at lambda") {
    val v = testItems.head
    val comps = model.componentsAll(v)
    assert(comps.length == model.index.profiles.size)
    val byUser = comps.map { case (u, rl, rs) => u -> Ranking.combine(rl, rs, ss.lambdaS) }.toMap
    model.index.scanTopK(model.queryOf(v), 5).foreach { case (u, s) =>
      assert(math.abs(byUser(u) - s) < 1e-9)
    }
  }

  test("a random recommender is beaten by ssRec on held-out precision") {
    val ks = Seq(10)
    val acc = Protocol.PrecisionAtK(ks)
    val rndAcc = Protocol.PrecisionAtK(ks)
    val rnd = new Random(7)
    val users = model.index.profiles.keys.toArray
    val truth = Protocol.truthOf(partitions(2))
    testItems.foreach { v =>
      val t = truth.getOrElse(v.itemId, Set.empty)
      acc.record(model.recommend(v, 10, exact = true).map(_._1), t)
      rndAcc.record(rnd.shuffle(users.toSeq).take(10), t)
    }
    assert(acc.value(10) > rndAcc.value(10),
           s"ssRec ${acc.value(10)} <= random ${rndAcc.value(10)}")
  }
}
