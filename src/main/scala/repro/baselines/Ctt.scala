package repro.baselines

import repro.core.Ranking
import repro.socialdata.{Interaction, Item}

/** CTT baseline (Huang et al., SIGMOD'16): fuses collaborative filtering, the
  * item type (category), and a temporal factor. Faithful to the properties the
  * paper ascribes to it: no short-term interest model, no diversity, and a
  * *sequential scan* over every user per incoming item (its Fig.-10 cost grows
  * with the data size).
  *
  * Score: `0.5·CF + 0.3·type + 0.2·temporal` where CF averages the similarity
  * of the incoming item to the user's recent history (co-consumer cosine
  * blended with entity Jaccard, so cold items still have content signal),
  * type is the user's long-run category frequency, and temporal decays with
  * the user's inactivity gap.
  */
final class Ctt(nCategories: Int) extends Serializable {
  private val histCap = 20 // most recent items per user that the CF term averages over

  private val consumersOf = scala.collection.mutable.Map.empty[Long, Set[Long]]
  private val entitiesOf = scala.collection.mutable.Map.empty[Long, Set[Int]]
  private val userHist = scala.collection.mutable.Map.empty[Long, Vector[Long]]
  private val userCatFreq = scala.collection.mutable.Map.empty[Long, Array[Double]]
  private val userLastTs = scala.collection.mutable.Map.empty[Long, Long]
  private var tau: Double = 1.0

  /** Initial training: replay the training interactions. */
  def train(interactions: Seq[Interaction]): this.type = {
    observe(interactions)
    val span = if (interactions.isEmpty) 1L
               else interactions.map(_.ts).max - interactions.map(_.ts).min + 1
    tau = math.max(1.0, span / 4.0)
    this
  }

  /** Absorb a new batch of interactions (stream update). */
  def observe(batch: Seq[Interaction]): Unit =
    batch.sortBy(_.ts).foreach { i =>
      consumersOf(i.itemId) = consumersOf.getOrElse(i.itemId, Set.empty) + i.userId
      entitiesOf(i.itemId) = i.entities.toSet
      userHist(i.userId) = (userHist.getOrElse(i.userId, Vector.empty) :+ i.itemId).takeRight(histCap)
      val f = userCatFreq.getOrElseUpdate(i.userId, Array.ofDim[Double](nCategories))
      f(i.category) += 1.0
      userLastTs(i.userId) = math.max(userLastTs.getOrElse(i.userId, 0L), i.ts)
    }

  /** All users known to the model. */
  def users: Iterable[Long] = userCatFreq.keys

  private def itemSim(v: Item, other: Long): Double = {
    val cv = consumersOf.getOrElse(v.itemId, Set.empty)
    val co = consumersOf.getOrElse(other, Set.empty)
    val cf =
      if (cv.isEmpty || co.isEmpty) 0.0
      else (cv & co).size / math.sqrt(cv.size.toDouble * co.size)
    val ev = v.entities.toSet
    val eo = entitiesOf.getOrElse(other, Set.empty)
    val jac = if (ev.isEmpty && eo.isEmpty) 0.0 else (ev & eo).size.toDouble / (ev | eo).size
    0.5 * cf + 0.5 * jac
  }

  /** Relevance of an item to one user. */
  def score(userId: Long, v: Item): Double = {
    val hist = userHist.getOrElse(userId, Vector.empty)
    val cf = if (hist.isEmpty) 0.0 else hist.map(itemSim(v, _)).sum / hist.size
    val f = userCatFreq(userId)
    val tot = f.sum
    val typeScore = if (tot <= 0) 0.0 else f(v.category) / tot
    val temporal = 1.0 / (1.0 + math.max(0L, v.ts - userLastTs.getOrElse(userId, 0L)) / tau)
    0.5 * cf + 0.3 * typeScore + 0.2 * temporal
  }

  /** Sequential scan over all users — the baseline has no index. */
  def recommend(v: Item, k: Int): Seq[(Long, Double)] =
    Ranking.topK(users.iterator.map(u => (u, score(u, v))), k)
}
