package repro.perfbench

import java.util.concurrent.locks.LockSupport
import repro.core.SsRecModel
import repro.eval.Protocol
import repro.socialdata.Interaction
import scala.collection.mutable.ArrayBuffer

/** The `replay` workload: `Protocol.evaluate`'s stream semantics driven as an
  * open loop. Test interaction i is due at `i / rate` seconds after the start
  * and an item is due with its first interaction. At each item the driver
  * waits until it is due, observes the interactions buffered since the last
  * item (split at partition edges, as `evaluate` flushes there), then answers
  * the item in fast mode. Latency runs from the due time to the answer, so it
  * includes the wait behind earlier slow steps.
  */
object Replay {

  final class Result {
    val itemMs = ArrayBuffer.empty[Double]
    val waitMs = ArrayBuffer.empty[Double]
    val observeMs = ArrayBuffer.empty[Double]
    val observeSize = ArrayBuffer.empty[Double]
    val recommendMs = ArrayBuffer.empty[Double]
    /** Per item: the time spent on it (its flush and its answer) and the
      * events that time absorbed (the flushed interactions plus the item).
      */
    val itemBusyMs = ArrayBuffer.empty[Double]
    val itemEvents = ArrayBuffer.empty[Double]
    val pAt10 = Protocol.PrecisionAtK(Seq(10))
    var busyNs = 0L
    var wallNs = 0L
    var interactions = 0L

    def arrivals: Int = itemMs.size
    def eventsPerBusySecond: Double = (interactions + arrivals) / math.max(1e-9, busyNs / 1e9)
  }

  /** Replay `in`'s test stream at `ratePerS` interactions per second (use
    * `Double.PositiveInfinity` for a closed loop) until `limit` items are
    * answered, the next item is scheduled after `seconds` (closed loop:
    * `seconds` have passed), or the stream ends. An open loop thus answers
    * the same items however fast the system is. With a `seed`, interaction
    * i falls due at a uniformly drawn point of its slot `[i, i + 1) / rate`
    * instead of at its start: the same rate, without bursts. `step` answers
    * one item (the timed `recommend`); it is a parameter so a test can slow
    * it down.
    */
  def run(model: SsRecModel, in: Inputs, k: Int, ratePerS: Double, seconds: Double, limit: Int,
          tr: Tracer, ledger: Ledger, seed: Option[Long] = None,
          step: Arrival => Option[Seq[(Long, Double)]] = null): Result = {
    val out = new Result
    val answer = Option(step).getOrElse((a: Arrival) =>
      ledger.attempt(s"recommend(${a.item.itemId})")(Query.recommend(model, a.item, k, exact = false, tr)))
    val arrivalAt = in.arrivals.iterator.map(a => a.pos -> a).toMap
    val buffer = ArrayBuffer.empty[(Interaction, Int)]
    // Checks and traced attribution run between steps; the schedule is
    // shifted by their time so they delay no item.
    var offClockNs = 0L
    def flush(): Unit = if (buffer.nonEmpty) {
      buffer.groupBy(_._2).toSeq.sortBy(_._1).foreach { case (_, part) =>
        val b = part.map(_._1).toSeq
        val c0 = System.nanoTime()
        Observe.call(model, b, out.observeMs.size.toLong, tr, ledger).foreach { ms =>
          out.observeMs += ms
          out.observeSize += b.size
          out.interactions += b.size
          offClockNs += System.nanoTime() - c0 - (ms * 1e6).toLong
        }
      }
      buffer.clear()
    }
    // Seconds after the start at which each test interaction is due.
    val schedule: Int => Double =
      if (ratePerS.isInfinite) _ => 0.0
      else seed match {
        case None => i => i / ratePerS
        case Some(s) =>
          val rnd = new scala.util.Random(s)
          in.test.indices.map(i => (i + rnd.nextDouble()) / ratePerS)
      }
    val t0 = System.nanoTime()
    val endNs = if (seconds >= 1e6) Long.MaxValue else t0 + (seconds * 1e9).toLong
    def dueNs(i: Int): Long = t0 + offClockNs + (schedule(i) * 1e9).toLong
    var i = 0
    var stop = false
    while (i < in.test.size && !stop) {
      arrivalAt.get(i) match {
        case Some(_) if out.arrivals >= limit || schedule(i) > seconds ||
                        (ratePerS.isInfinite && System.nanoTime() > endNs) => stop = true
        case Some(a) =>
          val due = dueNs(i)
          waitUntil(due)
          val start = System.nanoTime()
          val offBefore = offClockNs
          val absorbed = out.interactions
          flush()
          val flushOff = offClockNs - offBefore
          val r0 = System.nanoTime()
          val res = tr.span("eval.recommend", a.item.itemId)(answer(a))
          val done = System.nanoTime()
          out.itemMs += (done - due - flushOff) / 1e6
          out.waitMs += (start - due) / 1e6
          out.recommendMs += (done - r0) / 1e6
          out.busyNs += done - start - flushOff
          out.itemBusyMs += (done - start - flushOff) / 1e6
          out.itemEvents += 1.0 + (out.interactions - absorbed)
          res.foreach { recs =>
            ledger.record(Checks.wellFormed(recs, Checks.fastLength(model, a.item, k)),
                          s"malformed answer for item ${a.item.itemId}")
            out.pAt10.record(recs.map(_._1), a.truth)
          }
          offClockNs += System.nanoTime() - done
        case None =>
      }
      if (!stop) { buffer += in.test(i); i += 1 }
    }
    out.wallNs = System.nanoTime() - t0
    out
  }

  /** Sleep until `due`, spinning over the last 200 µs for precision. */
  private def waitUntil(due: Long): Unit = {
    var left = due - System.nanoTime()
    while (left > 0) {
      if (left > 200000L) LockSupport.parkNanos(left - 200000L)
      left = due - System.nanoTime()
    }
  }
}
