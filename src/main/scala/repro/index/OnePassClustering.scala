package repro.index

/** One-pass clustering (Section V-A: "User blocks are generated by one pass
  * clustering based on each user's long-term categorical interests and cosine
  * similarity"). A single scan assigns each vector to the most similar
  * existing centroid when the cosine reaches `threshold` (or when the block
  * budget is exhausted); otherwise it opens a new block. Centroids are running
  * means, updated incrementally — one pass, no reassignment.
  */
object OnePassClustering {

  /** Cosine that joins an existing block while the budget lasts (no paper value). */
  val DefaultThreshold: Double = 0.6

  /** Cosine similarity; zero vectors are treated as orthogonal to everything. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "dimension mismatch")
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na <= 0.0 || nb <= 0.0) 0.0 else dot / math.sqrt(na * nb)
  }

  /** Cluster `vectors` (keyed by id) into at most `maxBlocks` blocks.
    *
    * @return block id per input id, in `[0, numBlocks)`.
    */
  def cluster(vectors: Seq[(Long, Array[Double])], maxBlocks: Int,
              threshold: Double = DefaultThreshold): Map[Long, Int] = {
    require(maxBlocks >= 1, "maxBlocks must be >= 1")
    val centroids = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
    val sizes = scala.collection.mutable.ArrayBuffer.empty[Long]
    val out = scala.collection.mutable.Map.empty[Long, Int]
    vectors.foreach { case (id, v) =>
      var best = -1
      var bestSim = -1.0
      var b = 0
      while (b < centroids.length) {
        val s = cosine(centroids(b), v)
        if (s > bestSim) { bestSim = s; best = b }
        b += 1
      }
      if (best < 0 || (bestSim < threshold && centroids.length < maxBlocks)) {
        centroids += v.clone()
        sizes += 1L
        out(id) = centroids.length - 1
      } else {
        val c = centroids(best)
        val n = sizes(best)
        var i = 0
        while (i < c.length) { c(i) = (c(i) * n + v(i)) / (n + 1); i += 1 }
        sizes(best) = n + 1
        out(id) = best
      }
    }
    out.toMap
  }
}
