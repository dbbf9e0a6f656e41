package repro.perfbench

import repro.core.{SsRecModel, UserProfile}
import repro.socialdata.Item

/** Operation and correctness-check ledger of one run. An operation is a
  * `recommend` call, an `observe` call, a micro-batch or a check; it fails if
  * it throws or its result is malformed or wrong.
  */
final class Ledger {
  private var attemptedN = 0L
  private var failedN = 0L
  private val failures = scala.collection.mutable.ArrayBuffer.empty[String]

  def attempted: Long = attemptedN
  def failed: Long = failedN
  def firstFailures: Seq[String] = failures.toSeq

  /** Count one operation that passed if `ok`; `what` describes a failure. */
  def record(ok: Boolean, what: => String): Unit = {
    attemptedN += 1
    if (!ok) {
      failedN += 1
      if (failures.size < 10) failures += what
    }
  }

  /** Run one operation, counting a throw as a failure (and rethrowing
    * nothing: the run goes on and reports the failure).
    */
  def attempt[T](what: String)(body: => T): Option[T] =
    try Some(body)
    catch {
      case e: Exception =>
        record(ok = false, s"$what threw ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }
}

object Checks {

  /** A well-formed top-k list: the expected length, distinct users, finite
    * scores in non-increasing order.
    */
  def wellFormed(res: Seq[(Long, Double)], expectedLen: Int): Boolean =
    res.length == expectedLen &&
      res.map(_._1).distinct.length == res.length &&
      res.forall(r => !r._2.isNaN && !r._2.isInfinite) &&
      res.iterator.sliding(2).forall(w => w.length < 2 || w(0)._2 >= w(1)._2)

  private def sameScore(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  /** `got` is a correct top-k against the full ranking `all` (every user,
    * best first): the same score at every rank, and every listed user really
    * has its listed score — so users with equal scores are interchangeable.
    */
  def sameTopK(got: Seq[(Long, Double)], all: Seq[(Long, Double)], k: Int): Boolean = {
    val want = all.take(k)
    val scoreOf = all.toMap
    got.length == want.length &&
      got.map(_._1).distinct.length == got.length &&
      got.zip(want).forall { case ((_, a), (_, b)) => sameScore(a, b) } &&
      got.forall { case (u, s) => scoreOf.get(u).exists(sameScore(_, s)) }
  }

  /** Exact top-k of the index equals the sequential scan on users and scores. */
  def exactMatchesScan(model: SsRecModel, item: Item, k: Int): Boolean = {
    val q = model.queryOf(item)
    val exact = model.index.topK(q, k, exact = true)
    sameTopK(exact, model.index.scanTopK(q, model.index.profiles.size), k)
  }

  /** Expected length of a fast-mode answer: k, or fewer when the located
    * trees hold fewer users.
    */
  def fastLength(model: SsRecModel, item: Item, k: Int): Int =
    math.min(k, model.index.locateTrees(model.queryOf(item)).iterator.map(_.size).sum)

  def exactLength(model: SsRecModel, k: Int): Int = math.min(k, model.index.profiles.size)

  /** Field-by-field profile equality (case-class equality compares arrays by
    * reference).
    */
  def sameProfile(a: UserProfile, b: UserProfile): Boolean = {
    import java.util.Arrays
    def sameModel: Boolean = (a.model eq b.model) || (
      Arrays.equals(a.model.pi, b.model.pi) &&
        Arrays.deepEquals(a.model.a.asInstanceOf[Array[AnyRef]], b.model.a.asInstanceOf[Array[AnyRef]]) &&
        Arrays.deepEquals(a.model.b.asInstanceOf[Array[AnyRef]], b.model.b.asInstanceOf[Array[AnyRef]]))
    a.userId == b.userId && a.window == b.window &&
      Arrays.equals(a.catCount, b.catCount) &&
      a.prodCount == b.prodCount && a.entCount == b.entCount && a.longSeq == b.longSeq &&
      Arrays.equals(a.pLong, b.pLong) && Arrays.equals(a.pShort, b.pShort) && sameModel
  }
}
