package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core._
import repro.eval.Protocol
import repro.exp.Experiments
import repro.socialdata.{Item, SocialData}

class StreamingRecSpec extends SparkSpec {
  import StreamingRec._

  private val cfg = SocialData.tiny
  private val ss = SsRecConfig(nCategories = cfg.nCategories, nBStates = 2,
                               maxBlocks = 3, hmmIter = 10)
  private lazy val trained = Experiments.prepare(spark, cfg, ss)
  private lazy val model = Experiments.buildModel(trained, ss)

  private def runBatches[T](stream: MemoryStream[T],
                            out: org.apache.spark.sql.Dataset[_],
                            sink: String,
                            batches: Seq[Seq[T]]): Unit = {
    val q = out.writeStream.format("memory").queryName(sink).outputMode("append").start()
    try {
      batches.foreach { b => stream.addData(b); q.processAllAvailable() }
    } finally q.stop()
  }

  test("initialCatStates builds one tree per category over all users") {
    val states = initialCatStates(model)
    assert(states.map(_._1).toSet == (0 until cfg.nCategories).toSet)
    states.foreach { case (_, cs) => assert(cs.tree.size == model.index.profiles.size) }
  }

  test("recommendStream emits the same top-k as the batch-side tree KNN") {
    import spark.implicits._
    implicit val sctx = spark.sqlContext
    val streamItems = Protocol.itemStream(trained.partitions(2)).take(12).toSeq
    val source = MemoryStream[Item]
    val recs = recommendStream(source.toDS(), model, k = 5)
    runBatches(source, recs, "stream_recs", Seq(streamItems))
    val got = spark.table("stream_recs").as[Rec].collect()
      .groupBy(_.itemId).view.mapValues(_.sortBy(_.rank).map(_.userId).toSeq).toMap
    val states = initialCatStates(model).toMap
    streamItems.foreach { v =>
      val cs = states(v.category)
      val q = Ranking.queryOf(v.itemId, v.category, v.producerId, v.entities,
                              model.expansion, model.cfg.expand)
      val want = cs.tree.knn(q, 5, cs.prm, cs.col).map(_._1)
      assert(got(v.itemId) == want, s"item ${v.itemId}")
    }
  }

  test("recommendStream ranks are 1..k with descending scores") {
    import spark.implicits._
    val rows = spark.table("stream_recs").as[Rec].collect().groupBy(_.itemId)
    rows.foreach { case (_, rs) =>
      val sorted = rs.sortBy(_.rank)
      assert(sorted.map(_.rank).toSeq == (1 to sorted.length))
      val scores = sorted.map(_.score).toSeq
      assert(scores == scores.sorted(Ordering[Double].reverse))
    }
  }
}
