package repro.testutil

import repro.core._
import repro.hmm.IoHmm
import repro.index.{SigInner, SigLeaf, SigNode}
import scala.util.Random

/** Shared generators for index/core tests that need profiles, entry
  * statistics, and queries without running the full training pipeline.
  */
object Fixtures {
  val NCats = 6
  val NProd = 10
  val NEnt = 60
  val NZ = 2

  val collection: CollectionStats = CollectionStats(
    (0L until NProd.toLong).map(p => p -> 1.0 / NProd).toMap,
    (0 until NEnt).map(e => e -> 1.0 / NEnt).toMap,
    NProd.toLong, NEnt.toLong)

  val params: RankParams = RankParams(lambdaS = 0.4, mu = 5.0)

  /** Random but well-formed entry statistics (smoothed probs in (0,1]),
    * with at least `minKeys` producers and entities.
    */
  def randStats(rnd: Random, minKeys: Int = 1): EntryStats = {
    val tot = rnd.nextInt(40) + 1
    val inv = 1.0 / (tot + params.mu)
    EntryStats(
      pL = rnd.nextDouble() * 0.9 + 0.05,
      pS = rnd.nextDouble() * 0.9 + 0.05,
      invTot = inv,
      prod = (0 until rnd.nextInt(4) + minKeys)
        .map(_ => rnd.nextLong(NProd) -> (rnd.nextInt(tot) + params.mu / NProd) * inv).toMap,
      ent = (0 until rnd.nextInt(8) + minKeys)
        .map(_ => rnd.nextInt(NEnt) -> (rnd.nextInt(tot) + params.mu / NEnt) * inv).toMap,
    )
  }

  /** Random item query over the fixture vocabulary. */
  def randQuery(rnd: Random): ItemQuery = ItemQuery(
    itemId = rnd.nextLong(100000),
    category = rnd.nextInt(NCats),
    producerId = rnd.nextLong(NProd),
    entityWeights = (0 until rnd.nextInt(5) + 1)
      .map(_ => (rnd.nextInt(NEnt), rnd.nextDouble() * 0.9 + 0.1)).distinctBy(_._1))

  /** The Map-based `(R_ℓ, R_s)` that [[Ranking.Scorer]] replaced: the
    * reference its components must equal bit for bit.
    */
  def refComponents(s: EntryStats, q: ItemQuery, prm: RankParams, col: CollectionStats): (Double, Double) = {
    val prodP = math.max(
      s.prod.getOrElse(q.producerId, 0.0),
      prm.mu * col.producerBg(q.producerId) * s.invTot)
    var entSum = 0.0
    q.entityWeights.foreach { case (e, w) =>
      entSum += w * math.max(s.ent.getOrElse(e, 0.0), prm.mu * col.entityBg(e) * s.invTot)
    }
    def lg(x: Double): Double = math.log(math.max(x, 1e-12))
    (lg(s.pL) + lg(prodP) + lg(entSum), lg(s.pS))
  }

  /** The Map-based leaf build that [[Profiles.entryStats]] replaced: the
    * reference its statistics must equal.
    */
  def refEntryStats(p: UserProfile, c: Int, mu: Double, col: CollectionStats): EntryStats = {
    val inv = 1.0 / (p.totalIn(c) + mu)
    EntryStats(p.pLong(c), p.pShort(c), inv,
      p.prodCount.getOrElse(c, Map.empty[Long, Double]).map { case (k, n) => k -> (n + mu * col.producerBg(k)) * inv },
      p.entCount.getOrElse(c, Map.empty[Int, Double]).map { case (k, n) => k -> (n + mu * col.entityBg(k)) * inv })
  }

  /** The Map-based IEntry max that the sorted union replaced: the reference
    * [[EntryStats.max]] must equal.
    */
  def refMax(xs: Seq[EntryStats]): EntryStats = {
    def maxMap[K](maps: Seq[Map[K, Double]]): Map[K, Double] = {
      val widest = maps.maxBy(_.size)
      var acc = widest
      maps.foreach { m =>
        if (m ne widest) m.foreachEntry { (k, v) =>
          if (v > acc.getOrElse(k, Double.NegativeInfinity)) acc = acc.updated(k, v)
        }
      }
      acc
    }
    def top(f: EntryStats => Double): Double = xs.foldLeft(Double.NegativeInfinity)((m, x) => math.max(m, f(x)))
    EntryStats(top(_.pL), top(_.pS), top(_.invTot), maxMap(xs.map(_.prod)), maxMap(xs.map(_.ent)))
  }

  /** The Map-based query build that [[Ranking.queryOf]] replaced: the
    * reference its ids and weights must equal bit for bit.
    */
  def refQueryOf(itemId: Long, category: Int, producerId: Long, entities: Seq[Int],
                 expansion: EntityExpansion, expand: Boolean): ItemQuery = {
    val acc = scala.collection.mutable.Map.empty[Int, Double]
    entities.foreach { e =>
      acc(e) = acc.getOrElse(e, 0.0) + 1.0
      if (expand) expansion.of(e).foreach { case (x, w) => acc(x) = acc.getOrElse(x, 0.0) + w }
    }
    val ids = acc.keys.toArray
    java.util.Arrays.sort(ids)
    new ItemQuery(itemId, category, producerId, ids, ids.map(acc))
  }

  /** A random event stream for one user. */
  def randEvents(rnd: Random, n: Int): Seq[CompactEvent] =
    (0 until n).map { _ =>
      CompactEvent(rnd.nextInt(NCats), rnd.nextLong(NProd),
                   Seq.fill(rnd.nextInt(4) + 1)(rnd.nextInt(NEnt)).distinct, rnd.nextInt(NZ))
    }

  /** A profile built from random events with an (untrained) random b-HMM —
    * structurally complete, cheap to create.
    */
  def randProfile(userId: Long, rnd: Random, nEvents: Int = 30, windowCap: Int = 5): UserProfile =
    Profiles.build(userId, randEvents(rnd, nEvents),
                   IoHmm.random(2, NZ, NCats, seed = userId), NCats, windowCap)

  /** The IEntries under `n` (inclusive) that differ from the element-wise max
    * of their children: stale ones, even if they still upper-bound them.
    */
  def inexactIEntries(n: SigNode): Int = n match {
    case _: SigLeaf => 0
    case i: SigInner =>
      (if (i.stats == EntryStats.max(i.children.map(_.stats))) 0 else 1) +
        i.children.iterator.map(inexactIEntries).sum
  }

  /** Whether `a` holds `b`'s four impact-list arrays, by reference. */
  def sharesArrays(a: EntryStats, b: EntryStats): Boolean =
    (a.prodKeys eq b.prodKeys) && (a.prodVals eq b.prodVals) &&
      (a.entKeys eq b.entKeys) && (a.entVals eq b.entVals)

  /** Distinct IEntries on the paths from the given leaves to the root. */
  def ancestorsOf(leaves: Iterable[SigNode]): Set[SigInner] =
    leaves.iterator.flatMap(l => Iterator.iterate(l.parent)(_.parent).takeWhile(_ != null)).toSet
}
