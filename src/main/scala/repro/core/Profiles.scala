package repro.core

import repro.hmm.IoHmm

/** One long-term/short-term profile event: the (category, producer) pair of
  * the paper's CPPse representation plus the item's entities and the producer
  * hidden state decoded by the a-HMM layer.
  */
final case class CompactEvent(category: Int, producerId: Long, entities: Seq[Int], zHat: Int)

/** Collection-level background distributions used for Dirichlet smoothing of
  * the producer/entity MLEs (Section IV-C: "we apply the Dirichlet smoothing
  * technique to both producer and entities").
  */
final case class CollectionStats(bgProd: Map[Long, Double], bgEnt: Map[Int, Double],
                                 nProducers: Long, nEntities: Long) {
  def producerBg(p: Long): Double = bgProd.getOrElse(p, 1.0 / math.max(1L, nProducers).toDouble)
  def entityBg(e: Int): Double    = bgEnt.getOrElse(e, 1.0 / math.max(1L, nEntities).toDouble)
}

/** The statistics a signature-tree entry carries for one (user, category):
  * `⟨p_ℓ(c), P_{Uᵖ|c}, P_{E|c}, p_s(c)⟩` plus `invTot = 1/(tot_c + μ)` so the
  * smoothing floor of absent producers/entities can be evaluated (and upper-
  * bounded at internal entries). Maps hold *smoothed* probabilities, so an
  * element-wise max over children is a valid upper bound (Lemmas 1–2).
  */
final case class EntryStats(pL: Double, pS: Double, invTot: Double,
                            prod: Map[Long, Double], ent: Map[Int, Double]) {

  /** Upper-bound merge: element-wise max over every component (IEntry build). */
  def merge(o: EntryStats): EntryStats = EntryStats(
    math.max(pL, o.pL),
    math.max(pS, o.pS),
    math.max(invTot, o.invTot),
    (prod.keySet ++ o.prod.keySet).iterator
      .map(k => k -> math.max(prod.getOrElse(k, 0.0), o.prod.getOrElse(k, 0.0))).toMap,
    (ent.keySet ++ o.ent.keySet).iterator
      .map(k => k -> math.max(ent.getOrElse(k, 0.0), o.ent.getOrElse(k, 0.0))).toMap,
  )
}

/** A consumer's profile: short-term window `W` (flushed to the long-term list
  * `L` when full, Section IV-B), per-category long-term count statistics, the
  * user's trained b-HMM, and the cached BiHMM category predictions.
  */
final case class UserProfile(
    userId: Long,
    nCategories: Int,
    windowCap: Int,
    window: Vector[CompactEvent],
    catCount: Array[Double],
    prodCount: Map[Int, Map[Long, Double]],
    entCount: Map[Int, Map[Int, Double]],
    longSeq: Vector[(Int, Int)],
    longSeqCap: Int,
    model: IoHmm,
    pLong: Array[Double],
    pShort: Array[Double],
) {

  /** Total long-term interactions recorded under category c. */
  def totalIn(c: Int): Double = catCount(c)

  /** Long-term interaction count over all categories. */
  def totalLong: Double = catCount.sum

  /** Normalized long-term categorical interest vector (used by the one-pass
    * user blocking); uniform for a user with an empty long-term list.
    */
  def categoryVector: Array[Double] = {
    val t = totalLong
    if (t <= 0) Array.fill(nCategories)(1.0 / nCategories) else catCount.map(_ / t)
  }

  /** Distinct producers across the long-term lists (Table II statistic). */
  def producers: Set[Long] = prodCount.valuesIterator.flatMap(_.keysIterator).toSet

  /** Distinct entities across the long-term lists (Table II statistic). */
  def entities: Set[Int] = entCount.valuesIterator.flatMap(_.keysIterator).toSet
}

object Profiles {

  /** Flushed events the long-term sequence keeps for `p_ℓ` (no paper value). */
  val LongSeqCap: Int = 200

  /** Append one event. The window absorbs events until full, then is flushed
    * into the long-term statistics in one go — exactly the paper's "when the
    * short-term interest window is full, W will be flushed to L".
    * BiHMM predictions are NOT recomputed here; call [[refreshPredictions]]
    * after a batch of ingests (profile maintenance is periodic, Section V-C).
    */
  def ingest(p: UserProfile, e: CompactEvent): UserProfile =
    if (p.window.size < p.windowCap) p.copy(window = p.window :+ e)
    else {
      val cat  = p.catCount.clone()
      var prod = p.prodCount
      var ent  = p.entCount
      var seq  = p.longSeq
      p.window.foreach { w =>
        cat(w.category) += 1.0
        val pm = prod.getOrElse(w.category, Map.empty[Long, Double])
        prod += w.category -> (pm + (w.producerId -> (pm.getOrElse(w.producerId, 0.0) + 1.0)))
        var em = ent.getOrElse(w.category, Map.empty[Int, Double])
        w.entities.foreach(x => em += x -> (em.getOrElse(x, 0.0) + 1.0))
        ent += w.category -> em
        seq = seq :+ (w.zHat, w.category)
      }
      if (seq.size > p.longSeqCap) seq = seq.takeRight(p.longSeqCap)
      p.copy(window = Vector(e), catCount = cat, prodCount = prod, entCount = ent, longSeq = seq)
    }

  /** Recompute the cached BiHMM category predictions: `p_ℓ` filters over the
    * (capped) long-term sequence, `p_s` over the short-term window only
    * (Eq. 4 considers nothing but the BiHMM output for the window). The next
    * producer state is forecast from the learned z-dynamics of each sequence
    * (the a-layer mixture of Section IV-C).
    */
  def refreshPredictions(p: UserProfile): UserProfile = {
    val nZ = p.model.nInputs
    val longObs = p.longSeq
    val winObs  = p.window.map(e => (e.zHat, e.category))
    val pL = p.model.nextObsDist(longObs, repro.hmm.IoHmm.zForecast(longObs, nZ))
    val pS =
      if (winObs.isEmpty) pL.clone()
      else {
        // Short windows carry too few bigrams for their own z-dynamics; use
        // the long-term transition applied to the window's last state.
        val zd = longObs.lastOption.map(_ => repro.hmm.IoHmm.zTransition(longObs, nZ))
          .map(tr => tr(winObs.last._1))
          .getOrElse(repro.hmm.IoHmm.zForecast(winObs, nZ))
        p.model.nextObsDist(winObs, zd)
      }
    p.copy(pLong = pL, pShort = pS)
  }

  /** Build a profile by replaying a temporally-ordered history through
    * [[ingest]] and refreshing the BiHMM predictions once at the end.
    */
  def build(userId: Long, history: Seq[CompactEvent], model: IoHmm,
            nCategories: Int, windowCap: Int, longSeqCap: Int = LongSeqCap): UserProfile = {
    val empty = UserProfile(
      userId, nCategories, windowCap, Vector.empty,
      Array.ofDim[Double](nCategories), Map.empty, Map.empty,
      Vector.empty, longSeqCap, model,
      Array.fill(nCategories)(1.0 / nCategories), Array.fill(nCategories)(1.0 / nCategories))
    refreshPredictions(history.foldLeft(empty)(ingest))
  }

  /** Extract the signature-tree leaf statistics of one user under one
    * category. Stored probabilities are Dirichlet-smoothed:
    * `p̂(x|u,c) = (n(x,u,c) + μ·p_bg(x)) / (tot_c + μ)`.
    */
  def entryStats(p: UserProfile, c: Int, mu: Double, col: CollectionStats): EntryStats = {
    val tot = p.totalIn(c)
    val inv = 1.0 / (tot + mu)
    EntryStats(
      pL = p.pLong(c),
      pS = p.pShort(c),
      invTot = inv,
      prod = p.prodCount.getOrElse(c, Map.empty)
        .map { case (k, n) => k -> (n + mu * col.producerBg(k)) * inv },
      ent = p.entCount.getOrElse(c, Map.empty)
        .map { case (k, n) => k -> (n + mu * col.entityBg(k)) * inv },
    )
  }
}
