package repro.perfbench

/** Summary statistics over measured samples. */
object Stats {

  /** The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
    * closest ranks — the definition of numpy's default and of
    * `statistics.quantiles(method="inclusive")`. 0.0 for no samples.
    */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(q >= 0.0 && q <= 1.0, s"quantile must be in [0,1], got $q")
    if (xs.isEmpty) return 0.0
    val s = xs.toArray.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}
