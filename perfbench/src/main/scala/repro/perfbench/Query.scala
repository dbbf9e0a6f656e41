package repro.perfbench

import repro.core.SsRecModel
import repro.eval.Protocol
import repro.socialdata.Item
import scala.collection.mutable.ArrayBuffer

/** Latencies and quality of a run of fast/exact query pairs. */
final class QueryResult {
  val fastMs = ArrayBuffer.empty[Double]
  val exactMs = ArrayBuffer.empty[Double]
  val recall = ArrayBuffer.empty[Double]
  val pAt10 = Protocol.PrecisionAtK(Seq(10))

  /** Milliseconds per arrival answered in both modes. */
  def pairMs: Seq[Double] = fastMs.lazyZip(exactMs).map(_ + _).toSeq
}

/** The query layer: `SsRecModel.recommend` in fast and exact mode. */
object Query {

  /** One `recommend` call. Traced, the call is split into its two public
    * layers, `queryOf` and `CppseIndex.topK`, which is what `recommend` does.
    */
  def recommend(model: SsRecModel, item: Item, k: Int, exact: Boolean,
                tr: Tracer): Seq[(Long, Double)] =
    if (!tr.enabled) model.recommend(item, k, exact)
    else {
      val mode = if (exact) "exact" else "fast"
      tr.span(s"core.ssrec.recommend_$mode", item.itemId) {
        val q = tr.span("core.ranking.query_of", item.itemId)(model.queryOf(item))
        tr.span(s"index.topk_$mode", item.itemId)(model.index.topK(q, k, exact))
      }
    }

  /** Query the first `limit` arrivals (wrapping around the list) in both
    * modes back to back, alternating which mode goes first. Results are
    * validated off the clock.
    */
  def run(model: SsRecModel, arrivals: IndexedSeq[Arrival], k: Int, limit: Int,
          tr: Tracer, ledger: Ledger): QueryResult = {
    val out = new QueryResult
    val exactLen = Checks.exactLength(model, k)
    def timed(a: Arrival, exact: Boolean): (Option[Seq[(Long, Double)]], Double) = {
      val t0 = System.nanoTime()
      val r = ledger.attempt(s"recommend(${a.item.itemId}, exact=$exact)")(
        recommend(model, a.item, k, exact, tr))
      (r, (System.nanoTime() - t0) / 1e6)
    }
    var i = 0
    while (i < limit) {
      val a = arrivals(i % arrivals.size)
      val ((fast, fMs), (exact, eMs)) =
        if (i % 2 == 0) { val f = timed(a, exact = false); (f, timed(a, exact = true)) }
        else { val e = timed(a, exact = true); (timed(a, exact = false), e) }
      for (f <- fast; e <- exact) {
        val fastOk = Checks.wellFormed(f, Checks.fastLength(model, a.item, k))
        ledger.record(fastOk, s"malformed fast answer for item ${a.item.itemId}")
        ledger.record(Checks.wellFormed(e, exactLen), s"malformed exact answer for item ${a.item.itemId}")
        out.fastMs += fMs
        out.exactMs += eMs
        val fastIds = f.map(_._1).toSet
        out.recall += (if (e.isEmpty) 1.0 else e.count(x => fastIds(x._1)).toDouble / e.size)
        out.pAt10.record(f.map(_._1), a.truth)
        if (tr.enabled) traceCandidates(model, a.item, tr)
      }
      i += 1
    }
    out
  }

  /** Off the clock: time the two candidate-set lookups `topK` makes and
    * count the trees and users each yields.
    */
  private def traceCandidates(model: SsRecModel, item: Item, tr: Tracer): Unit = {
    val q = model.queryOf(item)
    val located = tr.span("index.locate_trees", item.itemId)(model.index.locateTrees(q))
    val all = tr.span("index.trees_of_category", item.itemId)(model.index.treesOfCategory(q.category))
    tr.count("index.trees_located", located.size)
    tr.count("index.located_users", located.iterator.map(_.size).sum)
    tr.count("index.trees_exact", all.size)
    tr.count("index.indexed_users", model.index.profiles.size)
    tr.count("query.items")
  }

  /** P@10 of fast-mode answers to `sample`, each answer validated. */
  def pAt10(model: SsRecModel, sample: Seq[Arrival], k: Int, ledger: Ledger): Double = {
    val acc = Protocol.PrecisionAtK(Seq(10))
    sample.foreach { a =>
      ledger.attempt(s"recommend(${a.item.itemId})")(model.recommend(a.item, k)).foreach { r =>
        ledger.record(Checks.wellFormed(r, Checks.fastLength(model, a.item, k)),
                      s"malformed fast answer for item ${a.item.itemId}")
        acc.record(r.map(_._1), a.truth)
      }
    }
    acc.value(10)
  }

  /** The exact-equals-scan gate on a fixed sample; traced, the reference
    * `scanTopK` is timed too.
    */
  def scanCheck(model: SsRecModel, sample: Seq[Item], k: Int, tr: Tracer, ledger: Ledger): Unit =
    sample.foreach { item =>
      ledger.attempt(s"exact-vs-scan check on item ${item.itemId}") {
        val ok = Checks.exactMatchesScan(model, item, k)
        ledger.record(ok, s"exact top-$k differs from scanTopK for item ${item.itemId}")
        tr.count("index.scan_checks")
        if (ok) tr.count("index.scan_agree")
        if (tr.enabled) {
          val q = model.queryOf(item)
          tr.span("index.scan", item.itemId)(model.index.scanTopK(q, k))
        }
      }
    }

  /** Every `n`-th arrival, up to `count` items: the fixed check/probe sample. */
  def sample(arrivals: IndexedSeq[Arrival], count: Int): IndexedSeq[Arrival] = {
    val step = math.max(1, arrivals.size / math.max(1, count))
    arrivals.indices.by(step).map(arrivals).take(count)
  }
}
