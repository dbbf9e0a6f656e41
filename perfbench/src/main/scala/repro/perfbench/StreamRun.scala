package repro.perfbench

import java.nio.file.Path
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core.{Ranking, SsRecModel}
import repro.eval.Protocol
import repro.socialdata.Item
import repro.stream.{Rec, StreamingRec}
import scala.collection.mutable.ArrayBuffer

/** The `stream` workload: item arrivals through
  * `StreamingRec.recommendStream` over a `MemoryStream`, one micro-batch at a
  * time, with each batch's recommendations collected on the driver.
  */
object StreamRun {

  final class Result {
    val batchMs = ArrayBuffer.empty[Double]
    val pAt10 = Protocol.PrecisionAtK(Seq(10))
    var items = 0L
    var recs = 0L

    def perSecond: Double = items / math.max(1e-9, batchMs.sum / 1e3)
  }

  /** Run `warmup` untimed micro-batches, then `limit` timed ones (wrapping
    * around the arrivals). Every item must
    * get k ranked recommendations with non-increasing scores; items in
    * `sample` must get exactly `SignatureTree.knn` over `initialCatStates`.
    */
  def run(spark: SparkSession, model: SsRecModel, arrivals: IndexedSeq[Arrival], k: Int,
          microBatch: Int, warmup: Int, limit: Int, sample: Set[Long],
          checkpoint: Path, tr: Tracer, ledger: Ledger): Result = {
    import spark.implicits._
    val out = new Result
    val states = StreamingRec.initialCatStates(model).toMap
    val perItem = math.min(k, model.index.profiles.size)
    val truth = arrivals.iterator.map(a => a.item.itemId -> a.truth).toMap
    val source = MemoryStream[Item](spark)
    var emitted: Array[Rec] = Array.empty
    val sink: (Dataset[Rec], Long) => Unit = (ds, _) => emitted = ds.collect()
    val query = StreamingRec.recommendStream(source.toDS(), model, k).writeStream
      .foreachBatch(sink).option("checkpointLocation", checkpoint.toString).start()
    val batches = arrivals.map(_.item).grouped(microBatch).toIndexedSeq
    def runBatch(b: Seq[Item], key: Long): Option[Double] = {
      val t0 = System.nanoTime()
      val ok = ledger.attempt(s"micro-batch $key")(tr.span("stream.batch", key) {
        source.addData(b)
        query.processAllAvailable()
      })
      ok.map(_ => (System.nanoTime() - t0) / 1e6)
    }
    try {
      (0 until warmup).foreach(j => runBatch(batches(j % batches.size), -1L - j))
      var j = 0
      while (j < limit) {
        val b = batches(j % batches.size)
        runBatch(b, j.toLong).foreach { ms =>
          out.batchMs += ms
          out.items += b.size
          out.recs += emitted.length
          val byItem = emitted.groupBy(_.itemId)
          val itemsOk = b.map { v =>
            val rs = byItem.getOrElse(v.itemId, Array.empty[Rec]).sortBy(_.rank)
            out.pAt10.record(rs.take(10).map(_.userId).toSeq, truth.getOrElse(v.itemId, Set.empty))
            rs.length == perItem && rs.map(_.rank).toSeq == (1 to perItem) &&
              rs.iterator.sliding(2).forall(w => w.length < 2 || w(0).score >= w(1).score)
          }
          ledger.record(itemsOk.forall(identity), s"micro-batch $j: an item lacks $perItem ranked recs")
          b.filter(v => sample(v.itemId)).foreach { v =>
            val cs = states(v.category)
            val q = Ranking.queryOf(v.itemId, v.category, v.producerId, v.entities,
                                    model.expansion, model.cfg.expand)
            val want = tr.span("stream.knn", v.itemId)(cs.tree.knn(q, k, cs.prm, cs.col))
            val got = byItem.getOrElse(v.itemId, Array.empty[Rec]).sortBy(_.rank)
              .map(r => (r.userId, r.score)).toSeq
            ledger.record(got == want, s"stream recs for item ${v.itemId} differ from knn")
          }
        }
        j += 1
      }
    } finally {
      query.stop()
    }
    if (tr.enabled) {
      val ser = new org.apache.spark.serializer.KryoSerializer(spark.sparkContext.getConf).newInstance()
      tr.count("stream.state_bytes", states.valuesIterator.map(s => ser.serialize(s).remaining().toDouble).sum)
    }
    out
  }
}
