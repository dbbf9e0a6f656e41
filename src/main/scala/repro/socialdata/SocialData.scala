package repro.socialdata

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

/** A social item `v = ⟨c, uᵖ, E⟩` plus stream metadata.
  *
  * `zPlanted` is the generator's ground-truth producer hidden state at creation
  * time. It exists only for generator sanity tests — the models never read it
  * (the a-HMM must *recover* it from the category sequence).
  */
final case class Item(itemId: Long, ts: Long, category: Int,
                      producerId: Long, entities: Seq[Int], zPlanted: Int)

/** One user-item interaction on the interaction stream (denormalized with the
  * item's attributes so downstream code needs no join).
  */
final case class Interaction(userId: Long, itemId: Long, ts: Long, category: Int,
                             producerId: Long, entities: Seq[Int], zPlanted: Int)

/** Generator configuration. All sizes are small-scale stand-ins for the
  * paper's datasets (see DESIGN.md §3 for the substitution rationale).
  *
  * @param plantedStatesMod8 when true, consumer u gets `1 + u % 8` planted
  *        hidden states (used by the Fig-5 experiment that groups users by
  *        optimal state count); otherwise consumers get 2–3 states.
  * @param producerMix weight γ with which a browsing step is driven by the
  *        producer's current hidden state rather than the consumer's own chain
  *        — the dependency BiHMM captures and plain HMM cannot.
  */
final case class SocialConfig(
    name: String,
    nProducers: Int,
    nConsumers: Int,
    nCategories: Int,
    nEntities: Int,
    nItems: Int,
    avgHistory: Int,
    plantedStatesMod8: Boolean = false,
    producerMix: Double = 0.5,
    seed: Long = 42L,
) {
  require(nEntities >= nCategories, "need at least one entity per category pool")
  require(nItems >= nProducers, "need at least one item per producer")

  /** Size of each category's entity pool. */
  def poolSize: Int = nEntities / nCategories
}

/** Deterministic planted-model generator for the four datasets of Table III.
  *
  * Producers emit items from planted sticky HMMs over categories; consumers
  * browse items through a mixture of their own planted chain and the state of
  * the producer they follow, with occasional burst sessions. Entities are
  * drawn from per-category Zipf-like pools in correlated pairs, giving the
  * proximity-expansion miner real co-occurrence signal.
  */
object SocialData {

  /** Unit-test scale: ~60 users, ~2.4K interactions. */
  val tiny: SocialConfig = SocialConfig(
    name = "Tiny", nProducers = 8, nConsumers = 60, nCategories = 6,
    nEntities = 240, nItems = 600, avgHistory = 40, seed = 42L)

  /** YTube stand-in (paper: 3,146 producers / 8.41M consumers / 19 categories). */
  val ytubeLite: SocialConfig = SocialConfig(
    name = "YTube-lite", nProducers = 60, nConsumers = 1800, nCategories = 19,
    nEntities = 2470, nItems = 12000, avgHistory = 60, seed = 42L)

  /** synthpop copy of YTube: same planted model, perturbed seed + jittered sizes. */
  val synYtubeLite: SocialConfig = ytubeLite.copy(
    name = "SynYTube-lite", nConsumers = 1790, nItems = 12000, avgHistory = 63, seed = 1042L)

  /** MovieLens stand-in (paper: 15 categories, fewer items, denser histories). */
  val mlensLite: SocialConfig = SocialConfig(
    name = "MLens-lite", nProducers = 30, nConsumers = 1200, nCategories = 15,
    nEntities = 1500, nItems = 4000, avgHistory = 80, seed = 7L)

  /** synthpop copy of MLens. */
  val synMlensLite: SocialConfig = mlensLite.copy(
    name = "SynMLens-lite", nProducers = 31, nConsumers = 1195, avgHistory = 82, seed = 1007L)

  /** The four datasets of Table III, in the paper's order. */
  def allConfigs: Seq[SocialConfig] = Seq(ytubeLite, synYtubeLite, mlensLite, synMlensLite)

  // Chance of a burst session (4–7 items on one topic): what makes |W| matter.
  private val BurstProb: Double = 0.12
  // Planted states of a producer, or of a consumer unless `plantedStatesMod8`.
  private def plantedStates(id: Long): Int = 2 + (id % 2).toInt

  private def mix(seed: Long, id: Long): Long = {
    var x = seed ^ (id * 0x9E3779B97F4A7C15L)
    x ^= x >>> 33; x *= 0xFF51AFD7ED558CCDL; x ^= x >>> 33
    x
  }

  /** Sticky planted chain step: stay with prob 0.8-ish, else advance. */
  private def stepState(s: Int, nStates: Int, stay: Double, rnd: Random): Int =
    if (nStates <= 1 || rnd.nextDouble() < stay) s else (s + 1 + rnd.nextInt(nStates - 1)) % nStates

  /** Planted emission: dominant category with prob 0.75, two spill categories. */
  private def spill(dom: Int, nCategories: Int, rnd: Random): Int = {
    val u = rnd.nextDouble()
    if (u < 0.75) dom
    else if (u < 0.90) (dom + 1) % nCategories
    else (dom + 2) % nCategories
  }

  /** Category-space stride shared by producer and consumer alignment. */
  private def strideOf(nCategories: Int): Int = math.max(1, nCategories / 3)

  /** Consumer-chain emission: consumers live on a home *offset* within the
    * category space (`u % stride`), so their interests are concentrated — the
    * property that makes user blocking shrink per-block vocabularies
    * (Table II). Higher planted states shift the offset slightly so state
    * counts above 3 remain distinguishable (Fig 5 groups).
    */
  private def consumerDominant(u: Long, state: Int, nCategories: Int): Int = {
    val stride = strideOf(nCategories)
    val offset = ((u + state / 3) % stride).toInt
    ((state % 3) * stride + offset) % nCategories
  }

  private def consumerCategory(u: Long, state: Int, nCategories: Int, rnd: Random): Int =
    spill(consumerDominant(u, state, nCategories), nCategories, rnd)

  /** Producer-chain emission: dominant categories are *globally state-aligned*
    * (a producer in hidden state s creates items around category f(s), up to a
    * small per-producer offset). This is what makes the producer hidden state
    * genuinely informative about the next browsed category — the dependency
    * the BiHMM's b-layer conditions on (paper Fig. 2: a bursting event at a
    * followed producer redirects the consumer's trajectory).
    */
  private def producerCategory(p: Long, state: Int, nCategories: Int, rnd: Random): Int = {
    // Stride so that 3 producer states x per-producer offsets cover the whole
    // category space (|C| distinct categories must actually occur, Table III).
    val stride = math.max(1, nCategories / 3)
    spill((state * stride + (p % stride).toInt) % nCategories, nCategories, rnd)
  }

  /** Draw 3–8 entities from the category pool, skewed toward popular ids and
    * in correlated even/odd pairs (pair co-occurrence drives expansion).
    */
  private def drawEntities(category: Int, cfg: SocialConfig, rnd: Random): Seq[Int] = {
    val base = category * cfg.poolSize
    val k = 3 + rnd.nextInt(6)
    val out = scala.collection.mutable.ArrayBuffer.empty[Int]
    while (out.size < k) {
      val u = rnd.nextDouble()
      val idx0 = math.min(cfg.poolSize - 1, (cfg.poolSize * u * u).toInt)
      val even = idx0 - (idx0 % 2)
      out += base + even
      // Twins co-occur often enough to be mined as expansions (w ≈ 0.4) but
      // appear alone often enough that expanding genuinely bridges items.
      if (out.size < k && rnd.nextDouble() < 0.4 && even + 1 < cfg.poolSize) out += base + even + 1
    }
    out.distinct.toSeq
  }

  /** Generate the social-item stream, distributed one task group per producer.
    * Item timestamps interleave producers round-robin so the stream order
    * mixes sources, and `itemId == ts` (both are globally unique).
    */
  def items(spark: SparkSession, cfg: SocialConfig): Dataset[Item] = {
    import spark.implicits._
    val c = cfg
    spark.range(c.nProducers).as[Long].flatMap { p =>
      val rnd = new Random(mix(c.seed, p))
      val nStates = plantedStates(p)
      val perProducer = c.nItems / c.nProducers + (if (p < c.nItems % c.nProducers) 1 else 0)
      var state = rnd.nextInt(nStates)
      (0 until perProducer).map { j =>
        state = stepState(state, nStates, stay = 0.8, rnd)
        val cat = producerCategory(p, state, c.nCategories, rnd)
        val ts = j.toLong * c.nProducers + p
        Item(ts, ts, cat, p, drawEntities(cat, c, rnd), state)
      }
    }
  }

  /** Catalog snapshot used by the consumer simulator: items grouped by
    * category, each list sorted by popularity rank (ascending itemId — early
    * items are the "popular" head that skewed sampling favors).
    */
  private def catalogByCategory(all: Array[Item], nCategories: Int): Array[Array[Item]] = {
    val byCat = Array.fill(nCategories)(scala.collection.mutable.ArrayBuffer.empty[Item])
    all.foreach(it => byCat(it.category) += it)
    byCat.map(_.sortBy(_.itemId).toArray)
  }

  /** Generate the user-item interaction stream, one task group per consumer.
    *
    * Each step picks a followed producer, then either (with prob
    * `producerMix`) browses that producer's next item — making the category a
    * function of the *producer's* hidden state — or draws a category from the
    * consumer's own planted chain and browses a popularity-skewed,
    * entity-affine item of that category. Burst sessions pin the category for
    * 4–7 consecutive steps. Interaction timestamps interleave consumers
    * round-robin so the 6-way time partitioning splits every history evenly.
    */
  def interactions(spark: SparkSession, cfg: SocialConfig): Dataset[Interaction] = {
    import spark.implicits._
    val c = cfg
    val itemArray = items(spark, c).collect()
    val bcByCat = spark.sparkContext.broadcast(catalogByCategory(itemArray, c.nCategories))
    val byProducer = itemArray.groupBy(_.producerId).map { case (p, its) => (p, its.sortBy(_.ts)) }
    val bcByProd = spark.sparkContext.broadcast(byProducer)

    spark.range(c.nConsumers).as[Long].flatMap { u =>
      val rnd = new Random(mix(c.seed + 1, u))
      val byCat  = bcByCat.value
      val byProd = bcByProd.value
      val nStates = if (c.plantedStatesMod8) 1 + (u % 8).toInt else plantedStates(u)
      val nFollow = 2 + rnd.nextInt(3)
      // Follow producers whose category offset matches the consumer's home
      // offset — users cluster around shared producers and entity pools, the
      // concentration that user blocking exploits (Table II).
      val stride = strideOf(c.nCategories)
      val offset = (u % stride).toInt
      val candidates = (0L until c.nProducers.toLong).filter(p => p % stride == offset)
      val followPool = if (candidates.nonEmpty) candidates else (0L until c.nProducers.toLong)
      val followed = (0 until nFollow)
        .map(i => followPool(((u * 7 + i * 13 + 1) % followPool.size).toInt)).distinct
      val fWeights = followed.indices.map(i => math.pow(0.55, i.toDouble))
      val wSum = fWeights.sum
      // Personal entity affinity: preferred entities inside the user's
      // dominant category pools — drives which item of a category gets browsed.
      val domCats = (0 until nStates).map(s => consumerDominant(u, s, c.nCategories)).distinct
      val affinity: Set[Int] = domCats.flatMap { dc =>
        val base = dc * c.poolSize
        (0 until 10).map(_ => base + rnd.nextInt(c.poolSize))
      }.toSet
      val len = c.avgHistory / 2 + rnd.nextInt(math.max(1, c.avgHistory))
      var state = rnd.nextInt(nStates)
      var burstLeft = 0
      var burstCat = 0

      val followedSet = followed.toSet

      def pickFromCategory(cat: Int): Item = {
        val pool = byCat(cat)
        if (pool.isEmpty) {
          // Category produced no items under this config; fall back globally.
          val any = byCat.find(_.nonEmpty).get
          any(rnd.nextInt(any.length))
        } else {
          var best: Item = null
          var bestScore = -1
          var tries = 0
          while (tries < 4) {
            val uu = rnd.nextDouble()
            val cand = pool(math.min(pool.length - 1, (pool.length * uu * uu).toInt))
            // Prefer entity-affine items from producers the user follows —
            // users stick to their sources, which concentrates the producers
            // a user block covers (Table II) and gives the producer term of
            // Eq. 2 real signal.
            val score = cand.entities.count(affinity.contains) +
              (if (followedSet.contains(cand.producerId)) 2 else 0)
            if (score > bestScore) { bestScore = score; best = cand }
            tries += 1
          }
          best
        }
      }

      def pickProducer(): Long = {
        val r = rnd.nextDouble() * wSum
        var acc = 0.0
        var i = 0
        while (i < followed.length) {
          acc += fWeights(i)
          if (r <= acc) return followed(i)
          i += 1
        }
        followed.last
      }

      // One of the followed producer's most recent items at the consumer's
      // current stream time: the next category follows the producer's
      // *current* hidden state — the real-time dependency the BiHMM's
      // a-layer tracks.
      def recentItemOf(p: Long, j: Int): Item = {
        val tl = byProd(p)
        val progress = (j + 1).toDouble / len
        val hi = math.max(1, math.min(tl.length, math.ceil(progress * tl.length).toInt))
        tl(math.max(0, hi - 1 - rnd.nextInt(math.min(3, hi))))
      }

      (0 until len).map { j =>
        val item: Item =
          if (burstLeft > 0) { burstLeft -= 1; pickFromCategory(burstCat) }
          else if (rnd.nextDouble() < BurstProb) {
            // A bursting event at a followed producer captures the consumer
            // for a short session on that topic (paper Fig. 2).
            val anchor = recentItemOf(pickProducer(), j)
            burstCat = anchor.category
            burstLeft = 3 + rnd.nextInt(4)
            anchor
          } else if (rnd.nextDouble() < c.producerMix) {
            recentItemOf(pickProducer(), j)
          } else {
            state = stepState(state, nStates, stay = 0.75, rnd)
            pickFromCategory(consumerCategory(u, state, c.nCategories, rnd))
          }
        Interaction(u, item.itemId, j.toLong * c.nConsumers + u,
                    item.category, item.producerId, item.entities, item.zPlanted)
      }
    }
  }

  /** Dataset overview in Table III's column order:
    * |Uᵖ|, |Uᶜ|, |E|, |C|, |IRact|, |V| — computed with DataFrame aggregations
    * over the actually-generated streams (not the config), like the paper.
    */
  def overview(spark: SparkSession, cfg: SocialConfig): (String, Long, Long, Long, Long, Long, Long) = {
    import spark.implicits._
    val it = items(spark, cfg).cache()
    val ir = interactions(spark, cfg).cache()
    val nProd = it.select("producerId").distinct().count()
    val nCons = ir.select("userId").distinct().count()
    val nEnt  = it.select(org.apache.spark.sql.functions.explode($"entities")).distinct().count()
    val nCat  = it.select("category").distinct().count()
    val nIr   = ir.count()
    val nV    = it.count()
    it.unpersist(); ir.unpersist()
    (cfg.name, nProd, nCons, nEnt, nCat, nIr, nV)
  }
}
