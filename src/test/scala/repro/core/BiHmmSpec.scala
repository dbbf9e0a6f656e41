package repro.core

import repro.SparkSpec
import repro.socialdata.{Interaction, SocialData}

class BiHmmSpec extends SparkSpec {
  private val cfg = SocialData.tiny
  private val bihmm = BiHmmConfig(cfg.nCategories, nBStates = 2, maxIter = 15)
  private lazy val items = SocialData.items(spark, cfg).cache()
  private lazy val producers = BiHmm.trainProducers(items, bihmm)
  private lazy val zOfItem = producers.valuesIterator.flatMap(_.zOfItem).toMap

  test("trainProducers yields one model per producer") {
    assert(producers.keySet == (0L until cfg.nProducers.toLong).toSet)
  }

  test("every item gets a decoded producer state in range") {
    assert(zOfItem.size == cfg.nItems)
    assert(zOfItem.values.forall(z => z >= 0 && z < bihmm.nAStates))
  }

  test("producer models have valid parametrizations") {
    producers.values.foreach { pm =>
      assert(math.abs(pm.hmm.pi.sum - 1.0) < 1e-9)
      pm.hmm.a.foreach(r => assert(math.abs(r.sum - 1.0) < 1e-9))
      pm.hmm.b.foreach(r => assert(math.abs(r.sum - 1.0) < 1e-9))
    }
  }

  test("producer trailing windows are capped at 50") {
    producers.values.foreach(pm => assert(pm.recentCats.size <= 50))
  }

  test("toEvents orders by timestamp and attaches decoded states") {
    val hist = Seq(
      Interaction(1L, 10L, 30L, 2, 0L, Seq(1), 9),
      Interaction(1L, 11L, 10L, 0, 0L, Seq(2), 9),
      Interaction(1L, 12L, 20L, 1, 0L, Seq(3), 9))
    val z = Map(10L -> 2, 11L -> 0, 12L -> 1)
    val events = BiHmm.toEvents(hist, z)
    assert(events.map(_.category) == Seq(0, 1, 2))
    assert(events.map(_.zHat) == Seq(0, 1, 2))
  }

  test("trainConsumer builds a complete profile") {
    val events = (0 until 24).map(i =>
      CompactEvent(i % cfg.nCategories, (i % cfg.nProducers).toLong, Seq(i % 20), i % bihmm.nAStates))
    val p = BiHmm.trainConsumer(7L, events, bihmm, windowCap = 5)
    assert(p.userId == 7L)
    assert(p.window.size <= 5)
    assert(p.totalLong + p.window.size == 24.0)
    assert(math.abs(p.pLong.sum - 1.0) < 1e-9)
    assert(math.abs(p.pShort.sum - 1.0) < 1e-9)
  }

  test("trainConsumers produces a profile for every interacting user") {
    val interactions = SocialData.interactions(spark, cfg)
    val users = interactions.select("userId").distinct().collect().map(_.getLong(0)).toSet
    val profiles = BiHmm.trainConsumers(interactions, zOfItem, bihmm, windowCap = 5)
    assert(profiles.keySet == users)
    profiles.values.foreach { p =>
      assert(p.nCategories == cfg.nCategories)
      assert(math.abs(p.pLong.sum - 1.0) < 1e-9)
    }
  }

  test("ProducerTracker decodes known producers and defaults unknown ones") {
    val tracker = new ProducerTracker(producers)
    val z = tracker.zFor(0L, 1)
    assert(z >= 0 && z < bihmm.nAStates)
    assert(tracker.zFor(99999L, 1) == 0)
  }

  test("ProducerTracker advances its trailing window deterministically") {
    val t1 = new ProducerTracker(producers)
    val t2 = new ProducerTracker(producers)
    val seq1 = (0 until 10).map(i => t1.zFor(1L, i % cfg.nCategories))
    val seq2 = (0 until 10).map(i => t2.zFor(1L, i % cfg.nCategories))
    assert(seq1 == seq2)
  }

  test("the a-HMM layer recovers planted state structure above chance") {
    // Viterbi-decoded states should correlate with the generator's planted
    // states: measure the best accuracy over label permutations on one
    // producer with a long stream.
    val its = items.collect().filter(_.producerId == 0L).sortBy(_.ts)
    val decoded = its.map(i => zOfItem(i.itemId))
    val planted = its.map(_.zPlanted)
    val nA = bihmm.nAStates
    val perms = (0 until nA).permutations.toSeq
    val best = perms.map(p => decoded.zip(planted).count { case (d, t) => p(d) == t }).max
    assert(best.toDouble / its.length > 1.2 / nA,
           s"decoded states uncorrelated with planted: ${best.toDouble / its.length}")
  }
}
