package repro.perfbench

import java.lang.management.ManagementFactory
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer: `parent` is the id of the enclosing span
  * (-1 at top level) and `key` the item, user or batch it served.
  */
final case class Span(id: Int, name: String, parent: Int, key: Long, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder for the traced run. Disabled, `span` only runs
  * its body, so the timed run pays one branch per wrapped call.
  */
final class Tracer(val enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private val counts = scala.collection.mutable.LinkedHashMap.empty[String, Double]

  def span[T](name: String, key: Long = -1L)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        done += Span(id, name, parent, key, t0, t1)
      }
    }

  /** Add to a named counter. */
  def count(name: String, n: Double = 1.0): Unit =
    if (enabled) counts(name) = counts.getOrElse(name, 0.0) + n

  def counter(name: String): Double = counts.getOrElse(name, 0.0)

  /** Number of spans of each name: the sample count behind a percentile. */
  def spanCounts: Map[String, Int] = done.groupMapReduce(_.name)(_ => 1)(_ + _)

  /** Durations (ms) of every span with this name. */
  def ms(name: String): Seq[Double] = done.iterator.filter(_.name == name).map(_.ms).toSeq

  /** All spans as JSON lines, for offline inspection (a span's self time is
    * its duration minus the time its children, found by `parent`, cover).
    */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = done.iterator.map { s =>
      compact(render(("id" -> s.id) ~ ("name" -> s.name) ~ ("parent" -> s.parent) ~
                     ("key" -> s.key) ~ ("start_ns" -> s.startNs) ~ ("end_ns" -> s.endNs)))
    }.mkString("", "\n", "\n")
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, lines)
  }
}

/** Driver-thread allocation and process-wide GC time, read at phase edges. */
final case class JvmSnapshot(gcMs: Long, allocBytes: Long) {
  def minus(o: JvmSnapshot): JvmSnapshot = JvmSnapshot(gcMs - o.gcMs, allocBytes - o.allocBytes)
  def plus(o: JvmSnapshot): JvmSnapshot = JvmSnapshot(gcMs + o.gcMs, allocBytes + o.allocBytes)
}

object JvmSnapshot {
  private val threads = ManagementFactory.getThreadMXBean match {
    case t: com.sun.management.ThreadMXBean => Some(t)
    case _ => None
  }

  def now(): JvmSnapshot = {
    var gc = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => gc += math.max(0L, b.getCollectionTime))
    val alloc = threads.map(_.getThreadAllocatedBytes(Thread.currentThread().getId)).getOrElse(0L)
    JvmSnapshot(gc, alloc)
  }
}
