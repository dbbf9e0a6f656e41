package repro.eval

import repro.socialdata.{Interaction, Item}

/** Stream-simulation evaluation protocol, following Wang et al. [31] as the
  * paper does (Section VI-B): interactions ordered by timestamp are split
  * evenly into six partitions; the first two train, the other four test; after
  * a partition is tested it is fed to the model as updates before the next one
  * is tested. Effectiveness is `P@k = #Hit / (|V|·k)` where |V| counts the
  * distinct items arriving in the test partitions and a hit is a recommended
  * (item → user) pair that actually occurred.
  */
object Protocol {

  /** Leading partitions that train; the rest are the test stream. */
  val TrainParts: Int = 2

  /** Split interactions into `n` even partitions in timestamp order. */
  def split(interactions: Seq[Interaction], n: Int = 6): IndexedSeq[Array[Interaction]] = {
    require(n >= 2, "need at least two partitions")
    val sorted = interactions.sortBy(_.ts).toArray
    val base = sorted.length / n
    val rem = sorted.length % n
    val out = IndexedSeq.newBuilder[Array[Interaction]]
    var off = 0
    (0 until n).foreach { i =>
      val len = base + (if (i < rem) 1 else 0)
      out += sorted.slice(off, off + len)
      off += len
    }
    out.result()
  }

  /** The item stream of a partition: distinct items in first-appearance
    * order, reconstructed from the denormalized interaction rows. `zPlanted`
    * is scrubbed — models must not see ground truth for test items.
    */
  def itemStream(part: Array[Interaction]): Array[Item] = {
    val seen = scala.collection.mutable.Set.empty[Long]
    val out = scala.collection.mutable.ArrayBuffer.empty[Item]
    part.sortBy(_.ts).foreach(i => if (seen.add(i.itemId)) out += arrivalOf(i))
    out.toArray
  }

  /** The item an interaction brings onto the stream, `zPlanted` scrubbed. */
  private def arrivalOf(i: Interaction): Item =
    Item(i.itemId, i.ts, i.category, i.producerId, i.entities, zPlanted = -1)

  /** Ground truth of a partition: the users that interacted with each item. */
  def truthOf(part: Array[Interaction]): Map[Long, Set[Long]] =
    part.groupBy(_.itemId).map { case (v, is) => v -> is.map(_.userId).toSet }

  /** A pluggable stream recommender (ssRec, its variants, CTT, UCD). */
  trait StreamRecommender {
    def name: String

    /** Top-k users for an incoming item, best first. */
    def recommend(item: Item, k: Int): Seq[Long]

    /** Feed a tested partition back as stream updates (no-op for the
      * no-update ssRec-nu variant and for static baselines).
      */
    def observe(batch: Seq[Interaction]): Unit
  }

  /** P@k accumulator across test partitions. */
  final case class PrecisionAtK(ks: Seq[Int]) {
    private val hits = scala.collection.mutable.Map.empty[Int, Long] ++ ks.map(_ -> 0L)
    private var items = 0L

    def record(recs: Seq[Long], truth: Set[Long]): Unit = {
      items += 1
      ks.foreach(k => hits(k) += recs.take(k).count(truth))
    }

    def itemCount: Long = items

    def value(k: Int): Double = if (items == 0) 0.0 else hits(k).toDouble / (items * k)

    def values: Map[Int, Double] = ks.map(k => k -> value(k)).toMap
  }

  /** The protocol's stream over the test partitions `TrainParts until n`.
    *
    * Interactions are consumed in timestamp order; an item is handed to
    * `arrive`, with the users that interacted with it in its partition, at its
    * *arrival* (its first interaction), before that interaction — or any later
    * one — is passed to `observe`, so there is no leakage of the item into the
    * profiles being ranked. Before each arrival, and at the end of each
    * partition, `observe` gets every interaction buffered since the last call.
    */
  def stream(partitions: IndexedSeq[Array[Interaction]],
             observe: Seq[Interaction] => Unit)(arrive: (Item, Set[Long]) => Unit): Unit = {
    val seen = scala.collection.mutable.Set.empty[Long]
    val buffer = scala.collection.mutable.ArrayBuffer.empty[Interaction]
    def flush(): Unit = if (buffer.nonEmpty) { observe(buffer.toSeq); buffer.clear() }
    (TrainParts until partitions.length).foreach { pi =>
      val part = partitions(pi)
      val truth = truthOf(part)
      part.sortBy(_.ts).foreach { e =>
        if (seen.add(e.itemId)) {
          flush()
          arrive(arrivalOf(e), truth.getOrElse(e.itemId, Set.empty))
        }
        buffer += e
      }
      flush()
    }
  }

  /** Run the full protocol over the test partitions ([[stream]]), recording
    * P@k of `rec`'s answer at every arrival. With `update = true` the
    * recommender observes every interaction older than the current arrival
    * (this is what keeps short-term windows fresh, Fig. 6/7/9); with
    * `update = false` it stays frozen after training — the paper's ssRec-nu
    * static setting.
    */
  def evaluate(partitions: IndexedSeq[Array[Interaction]], rec: StreamRecommender,
               ks: Seq[Int], update: Boolean = true): Map[Int, Double] = {
    val kMax = ks.max
    val acc = PrecisionAtK(ks)
    stream(partitions, batch => if (update) rec.observe(batch)) { (v, truth) =>
      acc.record(rec.recommend(v, kMax), truth)
    }
    acc.values
  }
}
