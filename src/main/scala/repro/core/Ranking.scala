package repro.core

/** Weights of the recommendation score (Eq. 3): `λ_s` balances the short-term
  * component, `μ` is the Dirichlet smoothing mass.
  */
final case class RankParams(lambdaS: Double = 0.4, mu: Double = Ranking.Mu) {
  require(lambdaS >= 0.0 && lambdaS <= 1.0, s"lambdaS must be in [0,1], got $lambdaS")
  require(mu > 0.0, "mu must be positive")
}

/** An incoming item encoded as a query: category, producer, and the combined
  * coefficient of every entity in `E ∪ E'` (original entities weigh 1 per
  * occurrence; expansion entities weigh their proximity weight `w_e`), i.e.
  * the `F ⊗ W_e` frequency-times-weight vector of Example 1 / Eq. 6, folded
  * into one coefficient per entity.
  */
final case class ItemQuery(itemId: Long, category: Int, producerId: Long,
                           entityWeights: Seq[(Int, Double)])

object Ranking {

  /** Dirichlet smoothing mass μ of Eq. 1 (the paper names no value). */
  val Mu: Double = 10.0
  private val PFloor: Double = 1e-12 // floor under every probability before its log

  /** The one order of every `(userId, score)` ranking: score desc, then userId asc. */
  val rankOrder: Ordering[(Long, Double)] = (a, b) => {
    val c = java.lang.Double.compare(b._2, a._2)
    if (c != 0) c else java.lang.Long.compare(a._1, b._1)
  }

  /** Keeps the k first `(userId, score)` pairs offered, in [[rankOrder]]. */
  final class TopK(k: Int) {
    private val heap = scala.collection.mutable.PriorityQueue.empty(rankOrder) // head: worst kept
    /** The k-th best score so far; -∞ until k pairs are kept. */
    def kthScore: Double = if (heap.size >= k && heap.nonEmpty) heap.head._2 else Double.NegativeInfinity
    def offer(x: (Long, Double)): Unit =
      if (heap.size < k) heap.enqueue(x)
      else if (heap.nonEmpty && rankOrder.lt(x, heap.head)) { heap.dequeue(); heap.enqueue(x) }
    def drain(): Seq[(Long, Double)] = heap.dequeueAll[(Long, Double)].reverse // best first
  }

  /** The k first `(userId, score)` pairs of `scored` in [[rankOrder]]. */
  def topK(scored: IterableOnce[(Long, Double)], k: Int): Seq[(Long, Double)] = {
    val top = new TopK(k); scored.iterator.foreach(top.offer); top.drain()
  }

  /** Encode an item as a query, applying entity expansion when enabled
    * (ssRec-ne in the paper is exactly `expand = false`).
    */
  def queryOf(itemId: Long, category: Int, producerId: Long, entities: Seq[Int],
              expansion: EntityExpansion, expand: Boolean): ItemQuery = {
    val acc = scala.collection.mutable.Map.empty[Int, Double]
    entities.foreach { e =>
      acc(e) = acc.getOrElse(e, 0.0) + 1.0
      if (expand) expansion.of(e).foreach { case (x, w) => acc(x) = acc.getOrElse(x, 0.0) + w }
    }
    ItemQuery(itemId, category, producerId, acc.toSeq.sortBy(_._1))
  }

  /** The long-term and short-term score components of one entry against one
    * query, before the λ_s combination:
    *
    * `R_ℓ = log p_ℓ + log p̂(uᵖ|u,c) + log Σ_e w_e·p̂(e|u,c)` (Eq. 2) and
    * `R_s = log p_s` (Eq. 4). Probabilities absent from the entry's impact
    * lists fall back to their smoothing floor `μ·p_bg·invTot`; because every
    * stored probability is ≥ its own floor and IEntry components are
    * element-wise maxima, the same formula evaluated on an IEntry upper-bounds
    * every descendant (Lemmas 1–2).
    */
  def components(s: EntryStats, q: ItemQuery, prm: RankParams, col: CollectionStats): (Double, Double) = {
    val prodP = math.max(
      s.prod.getOrElse(q.producerId, 0.0),
      prm.mu * col.producerBg(q.producerId) * s.invTot)
    var entSum = 0.0
    q.entityWeights.foreach { case (e, w) =>
      entSum += w * math.max(s.ent.getOrElse(e, 0.0), prm.mu * col.entityBg(e) * s.invTot)
    }
    def lg(x: Double): Double = math.log(math.max(x, PFloor))
    (lg(s.pL) + lg(prodP) + lg(entSum), lg(s.pS))
  }

  /** Eq. 3: `R = (1-λ_s)·R_ℓ + λ_s·R_s`. */
  def combine(rl: Double, rs: Double, lambdaS: Double): Double =
    (1.0 - lambdaS) * rl + lambdaS * rs

  /** Full relevance score of one entry (leaf = a user, internal = upper bound). */
  def score(s: EntryStats, q: ItemQuery, prm: RankParams, col: CollectionStats): Double = {
    val (rl, rs) = components(s, q, prm, col)
    combine(rl, rs, prm.lambdaS)
  }
}
