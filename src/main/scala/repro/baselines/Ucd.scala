package repro.baselines

import repro.core.Ranking
import repro.index.OnePassClustering
import repro.socialdata.{Interaction, Item}

/** UCD baseline (Zanitti et al., WWW'18): a user-centric diversity-by-design
  * recommender where each user profile is expanded with its nearest
  * neighbours' profiles. Faithful to the properties the paper ascribes to it:
  * diversity-aware (neighbour expansion + a penalty against items similar to
  * recently recommended ones) but no short-term interest model, and a
  * sequential scan with extra per-user diversity work — which is why it is
  * slower than CTT in Fig. 10.
  */
final class Ucd(nCategories: Int, nNeighbours: Int = 5) extends Serializable {
  private val recentCap = 20 // recent recommendations per user the diversity penalty checks

  private val userEnt = scala.collection.mutable.Map.empty[Long, Map[Int, Double]]
  private val userCatFreq = scala.collection.mutable.Map.empty[Long, Array[Double]]
  private var neighbours = Map.empty[Long, Seq[Long]]
  private val recentRecs = scala.collection.mutable.Map.empty[Long, Vector[Set[Int]]]
  // Expanded profiles are expensive to assemble; cache per user, invalidated
  // when the user's (or anyone's — neighbours share mass) profile changes.
  private val expCache = scala.collection.mutable.Map.empty[Long, Map[Int, Double]]

  /** Initial training: build profiles, then the neighbour graph. */
  def train(interactions: Seq[Interaction]): this.type = {
    observe(interactions)
    rebuildNeighbours()
    this
  }

  /** Absorb a batch: only the touched users' cached expanded profiles are
    * invalidated (neighbours keep a slightly stale view until their own next
    * update — UCD treats preferences as static anyway, per the paper).
    */
  def observe(batch: Seq[Interaction]): Unit = {
    batch.foreach(i => expCache.remove(i.userId))
    batch.foreach { i =>
      var m = userEnt.getOrElse(i.userId, Map.empty[Int, Double])
      i.entities.foreach(e => m += e -> (m.getOrElse(e, 0.0) + 1.0))
      userEnt(i.userId) = m
      val f = userCatFreq.getOrElseUpdate(i.userId, Array.ofDim[Double](nCategories))
      f(i.category) += 1.0
    }
  }

  /** Top-`nNeighbours` users by cosine over category-frequency vectors. */
  def rebuildNeighbours(): Unit = {
    val all = userCatFreq.toSeq
    neighbours = all.map { case (u, f) =>
      u -> Ranking.topK(all.iterator.filter(_._1 != u)
        .map { case (v, g) => (v, OnePassClustering.cosine(f, g)) }, nNeighbours).map(_._1)
    }.toMap
  }

  def users: Iterable[Long] = userCatFreq.keys

  /** Entity profile expanded with neighbours (neighbour mass down-weighted). */
  private def expandedProfile(userId: Long): Map[Int, Double] =
    expCache.getOrElseUpdate(userId, {
      var m = userEnt.getOrElse(userId, Map.empty[Int, Double])
      neighbours.getOrElse(userId, Seq.empty).foreach { nb =>
        userEnt.getOrElse(nb, Map.empty).foreach { case (e, w) =>
          m += e -> (m.getOrElse(e, 0.0) + 0.5 * w)
        }
      }
      m
    })

  /** Distinct entities seen anywhere — the smoothing background vocabulary. */
  private def globalEntityCount: Int =
    math.max(100, userEnt.valuesIterator.map(_.size).sum)

  /** Relevance × diversity score. Relevance is a Dirichlet-smoothed
    * log-likelihood of the item under the neighbour-expanded profile (the
    * category prior plus the entity match) — the same class of estimator
    * ssRec uses, minus the short-term interest, producer term, and proximity
    * expansion the paper credits ssRec with. The diversity-by-design part
    * discounts items similar to this user's recently recommended ones (the
    * pairwise check is UCD's extra per-user cost).
    */
  def score(userId: Long, v: Item): Double = {
    val mu = 10.0
    val prof = expandedProfile(userId)
    val tot = prof.values.sum
    val f = userCatFreq(userId)
    val fTot = f.sum
    val pc = (f(v.category) + mu / nCategories) / (fTot + mu)
    val bgE = 1.0 / globalEntityCount
    val pe = v.entities.map(e => (prof.getOrElse(e, 0.0) + mu * bgE) / (tot + mu)).sum
    val rel = math.log(pc) + math.log(math.max(pe, 1e-12))
    val vSet = v.entities.toSet
    val penalty = recentRecs.getOrElse(userId, Vector.empty).foldLeft(0.0) { (acc, prev) =>
      val j = if (vSet.isEmpty && prev.isEmpty) 0.0
              else (vSet & prev).size.toDouble / math.max(1, (vSet | prev).size)
      math.max(acc, j)
    }
    rel + math.log1p(-0.5 * penalty)
  }

  /** Sequential scan over every user, recording the winners' recommendation
    * history for the diversity penalty.
    */
  def recommend(v: Item, k: Int): Seq[(Long, Double)] = {
    val top = Ranking.topK(users.iterator.map(u => (u, score(u, v))), k)
    val vSet = v.entities.toSet
    top.foreach { case (u, _) =>
      recentRecs(u) = (recentRecs.getOrElse(u, Vector.empty) :+ vSet).takeRight(recentCap)
    }
    top
  }
}
