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
  // The maps again as sorted primitive arrays, with the value of an absent
  // key computed once: a lookup is a binary search that allocates nothing.
  // Transient, so serialized copies (the streaming state holds one per
  // category) carry the maps alone and rebuild the arrays on first use.
  @transient private lazy val prodKeys: Array[Long] = { val k = bgProd.keys.toArray; java.util.Arrays.sort(k); k }
  @transient private lazy val prodVals: Array[Double] = prodKeys.map(bgProd)
  private val prodFloor: Double = 1.0 / math.max(1L, nProducers).toDouble
  @transient private lazy val entKeys: Array[Int] = { val k = bgEnt.keys.toArray; java.util.Arrays.sort(k); k }
  @transient private lazy val entVals: Array[Double] = entKeys.map(bgEnt)
  private val entFloor: Double = 1.0 / math.max(1L, nEntities).toDouble

  /** `bgProd(p)`, or `1/nProducers` for a producer absent from it. */
  def producerBg(p: Long): Double = {
    val i = java.util.Arrays.binarySearch(prodKeys, p)
    if (i >= 0) prodVals(i) else prodFloor
  }

  /** `bgEnt(e)`, or `1/nEntities` for an entity absent from it. */
  def entityBg(e: Int): Double = {
    val i = java.util.Arrays.binarySearch(entKeys, e)
    if (i >= 0) entVals(i) else entFloor
  }
}

/** The statistics a signature-tree entry carries for one (user, category):
  * `⟨p_ℓ(c), P_{Uᵖ|c}, P_{E|c}, p_s(c)⟩` plus `invTot = 1/(tot_c + μ)` so the
  * smoothing floor of absent producers/entities can be evaluated (and upper-
  * bounded at internal entries). The two impact lists are the paper's encoded
  * signature (Eq. 6): keys sorted strictly ascending, each with its *smoothed*
  * probability at the same index, so an element-wise max over children is a
  * valid upper bound (Lemmas 1–2). No array is written after construction.
  * Equality is by value, bit for bit, as `java.util.Arrays.equals`.
  */
final class EntryStats(val pL: Double, val pS: Double, val invTot: Double,
                       val prodKeys: Array[Long], val prodVals: Array[Double],
                       val entKeys: Array[Int], val entVals: Array[Double]) extends Serializable {

  /** `pL`, `pS` and `invTot` equal `o`'s, bit for bit. */
  def sameScalars(o: EntryStats): Boolean =
    java.lang.Double.compare(pL, o.pL) == 0 && java.lang.Double.compare(pS, o.pS) == 0 &&
      java.lang.Double.compare(invTot, o.invTot) == 0

  /** Both impact lists equal `o`'s, bit for bit (at once if they are `o`'s arrays). */
  def sameLists(o: EntryStats): Boolean =
    java.util.Arrays.equals(prodKeys, o.prodKeys) && java.util.Arrays.equals(prodVals, o.prodVals) &&
      java.util.Arrays.equals(entKeys, o.entKeys) && java.util.Arrays.equals(entVals, o.entVals)

  /** These scalars over `o`'s impact lists, by reference. */
  def withListsOf(o: EntryStats): EntryStats =
    new EntryStats(pL, pS, invTot, o.prodKeys, o.prodVals, o.entKeys, o.entVals)

  override def equals(o: Any): Boolean = o match {
    case x: EntryStats => sameScalars(x) && sameLists(x)
    case _ => false
  }

  override def hashCode: Int = java.util.Arrays.hashCode(Array(
    java.lang.Double.hashCode(pL), java.lang.Double.hashCode(pS), java.lang.Double.hashCode(invTot),
    java.util.Arrays.hashCode(prodKeys), java.util.Arrays.hashCode(prodVals),
    java.util.Arrays.hashCode(entKeys), java.util.Arrays.hashCode(entVals)))

  override def toString: String = {
    import java.util.Arrays.{toString => str}
    s"EntryStats($pL, $pS, $invTot, ${str(prodKeys)}, ${str(prodVals)}, ${str(entKeys)}, ${str(entVals)})"
  }
}

object EntryStats {

  /** The IEntry of Section V-A over `xs`: the element-wise max of every
    * component, a key absent from an entry counting as 0 (every component is
    * non-negative). Each impact list is one linear k-way sorted union of the
    * operands' lists.
    */
  def max(xs: collection.Seq[EntryStats]): EntryStats = {
    require(xs.nonEmpty, "max of no entries")
    val n = xs.length
    var pL, pS, invTot = Double.NegativeInfinity
    val pks = new Array[Array[Long]](n); val pvs = new Array[Array[Double]](n)
    val eks = new Array[Array[Int]](n); val evs = new Array[Array[Double]](n)
    var i = 0
    xs.foreach { x =>
      pL = math.max(pL, x.pL); pS = math.max(pS, x.pS); invTot = math.max(invTot, x.invTot)
      pks(i) = x.prodKeys; pvs(i) = x.prodVals; eks(i) = x.entKeys; evs(i) = x.entVals
      i += 1
    }
    val (pk, pv) = unionMax(pks, pvs)
    val (ek, ev) = unionMax(eks, evs)
    new EntryStats(pL, pS, invTot, pk, pv, ek, ev)
  }

  /** The sorted union of the sorted lists `keys(j)`, each key with the
    * largest of its values in `vals(j)`. Each step takes the smallest key not
    * yet merged and advances every list holding it.
    */
  private def unionMax(keys: Array[Array[Long]], vals: Array[Array[Double]]): (Array[Long], Array[Double]) = {
    val at = new Array[Int](keys.length)
    val outK = new Array[Long](keys.iterator.map(_.length).sum)
    val outV = new Array[Double](outK.length)
    var m = 0
    while (m < outK.length) {
      var min = Long.MaxValue; var found = false; var j = 0
      while (j < keys.length) {
        if (at(j) < keys(j).length && (!found || keys(j)(at(j)) < min)) { min = keys(j)(at(j)); found = true }
        j += 1
      }
      if (!found) return (java.util.Arrays.copyOf(outK, m), java.util.Arrays.copyOf(outV, m))
      var v = Double.NegativeInfinity; j = 0
      while (j < keys.length) {
        if (at(j) < keys(j).length && keys(j)(at(j)) == min) { v = math.max(v, vals(j)(at(j))); at(j) += 1 }
        j += 1
      }
      outK(m) = min; outV(m) = v; m += 1
    }
    (outK, outV)
  }

  /** [[unionMax]] over `Int` keys, line for line. */
  private def unionMax(keys: Array[Array[Int]], vals: Array[Array[Double]]): (Array[Int], Array[Double]) = {
    val at = new Array[Int](keys.length)
    val outK = new Array[Int](keys.iterator.map(_.length).sum)
    val outV = new Array[Double](outK.length)
    var m = 0
    while (m < outK.length) {
      var min = Int.MaxValue; var found = false; var j = 0
      while (j < keys.length) {
        if (at(j) < keys(j).length && (!found || keys(j)(at(j)) < min)) { min = keys(j)(at(j)); found = true }
        j += 1
      }
      if (!found) return (java.util.Arrays.copyOf(outK, m), java.util.Arrays.copyOf(outV, m))
      var v = Double.NegativeInfinity; j = 0
      while (j < keys.length) {
        if (at(j) < keys(j).length && keys(j)(at(j)) == min) { v = math.max(v, vals(j)(at(j))); at(j) += 1 }
        j += 1
      }
      outK(m) = min; outV(m) = v; m += 1
    }
    (outK, outV)
  }
}

/** A consumer's profile: short-term window `W` (flushed to the long-term list
  * `L` when full, Section IV-B), per-category long-term count statistics, the
  * user's trained b-HMM, and the cached BiHMM category predictions along with
  * the producer-state transition of the long-term sequence they were made
  * from (`zLong`, [[repro.hmm.IoHmm.zTransition]] of `longSeq`).
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
    zLong: Array[Array[Double]],
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
  def refreshPredictions(p: UserProfile): UserProfile =
    predict(p, IoHmm.zTransition(p.longSeq, p.model.nInputs), None)

  /** [[refreshPredictions]] of `p`, which is `old` after a batch of
    * [[ingest]]s. When no window flushed, `longSeq` is still `old`'s, so
    * `old`'s `pLong` and `zLong` are reused and only `pShort` is recomputed.
    */
  def refreshAfter(old: UserProfile, p: UserProfile): UserProfile =
    if (p.longSeq eq old.longSeq) predict(p, old.zLong, Some(old.pLong))
    else refreshPredictions(p)

  private def predict(p: UserProfile, zLong: Array[Array[Double]],
                      pLong: Option[Array[Double]]): UserProfile = {
    val longObs = p.longSeq
    val winObs  = p.window.map(e => (e.zHat, e.category))
    val pL = pLong.getOrElse(p.model.nextObsDist(longObs, IoHmm.zForecast(longObs, zLong)))
    val pS =
      if (winObs.isEmpty) pL.clone()
      else {
        // Short windows carry too few bigrams for their own z-dynamics; use
        // the long-term transition applied to the window's last state.
        val zd = if (longObs.nonEmpty) zLong(winObs.last._1)
                 else IoHmm.zForecast(winObs, p.model.nInputs)
        p.model.nextObsDist(winObs, zd)
      }
    p.copy(pLong = pL, pShort = pS, zLong = zLong)
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
      Array.fill(nCategories)(1.0 / nCategories), Array.fill(nCategories)(1.0 / nCategories),
      Array.empty)
    refreshPredictions(history.foldLeft(empty)(ingest))
  }

  /** Extract the signature-tree leaf statistics of one user under one
    * category. Stored probabilities are Dirichlet-smoothed:
    * `p̂(x|u,c) = (n(x,u,c) + μ·p_bg(x)) / (tot_c + μ)`, written in key order
    * straight from the count maps.
    */
  def entryStats(p: UserProfile, c: Int, mu: Double, col: CollectionStats): EntryStats = {
    val inv = 1.0 / (p.totalIn(c) + mu)
    val prod = p.prodCount.getOrElse(c, Map.empty[Long, Double])
    val ent = p.entCount.getOrElse(c, Map.empty[Int, Double])
    val pk = prod.keys.toArray; java.util.Arrays.sort(pk)
    val ek = ent.keys.toArray; java.util.Arrays.sort(ek)
    val pv = new Array[Double](pk.length)
    var i = 0
    while (i < pk.length) { pv(i) = (prod(pk(i)) + mu * col.producerBg(pk(i))) * inv; i += 1 }
    val ev = new Array[Double](ek.length)
    i = 0
    while (i < ek.length) { ev(i) = (ent(ek(i)) + mu * col.entityBg(ek(i))) * inv; i += 1 }
    new EntryStats(p.pLong(c), p.pShort(c), inv, pk, pv, ek, ev)
  }

  /** [[entryStats]] of `p`, which is `old` after a batch of [[ingest]]s,
    * given `prev`, the statistics of `old` under `c`. A flush rebuilds only
    * the count maps of the categories it fed, so while `c`'s maps and count
    * are still `old`'s, `prev`'s impact lists and `invTot` are reused by
    * reference and only `p_ℓ` and `p_s` are read from `p`.
    */
  def entryStatsAfter(old: UserProfile, prev: EntryStats, p: UserProfile, c: Int,
                      mu: Double, col: CollectionStats): EntryStats =
    if ((p.catCount eq old.catCount) || // no window flushed
        p.catCount(c) == old.catCount(c) &&
        (p.prodCount.getOrElse(c, null) eq old.prodCount.getOrElse(c, null)) &&
        (p.entCount.getOrElse(c, null) eq old.entCount.getOrElse(c, null)))
      new EntryStats(p.pLong(c), p.pShort(c), prev.invTot,
                     prev.prodKeys, prev.prodVals, prev.entKeys, prev.entVals)
    else entryStats(p, c, mu, col)
}
