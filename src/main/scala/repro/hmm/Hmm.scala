package repro.hmm

/** Discrete hidden Markov model `λ = ⟨π, A, B⟩` (paper Section IV-A, a-HMM layer).
  *
  * `pi(i)` is the initial probability of state i, `a(i)(j)` the transition
  * probability i→j, and `b(j)(m)` the probability of emitting observation
  * symbol m from state j. All algorithms use the scaled forward/backward
  * recursions so sequences of thousands of steps do not underflow.
  */
final case class Hmm(pi: Array[Double], a: Array[Array[Double]], b: Array[Array[Double]]) {

  /** Number of hidden states N. */
  def nStates: Int = pi.length

  /** Number of observation symbols M. */
  def nObs: Int = b(0).length

  /** This model as the one-input case of [[IoHmm]]: every step carries
    * input 0. The forward/backward recursions and Baum-Welch are IoHmm's; with
    * one input they run the same arithmetic in the same order.
    */
  private def asIoHmm: IoHmm = IoHmm(pi, Array(a), Array(b))

  /** Scaled forward pass: (alphaHat, scales) as in [[IoHmm.forward]]. */
  def forward(obs: IndexedSeq[Int]): (Array[Array[Double]], Array[Double]) =
    asIoHmm.forward(Hmm.oneInput(obs))

  /** Scaled backward pass using the forward scales; see [[IoHmm.backward]]. */
  def backward(obs: IndexedSeq[Int], scales: Array[Double]): Array[Array[Double]] =
    asIoHmm.backward(Hmm.oneInput(obs), scales)

  /** Filtered state distribution p(state | obs); equals `pi` on an empty history. */
  def filtered(obs: IndexedSeq[Int]): Array[Double] = asIoHmm.filtered(Hmm.oneInput(obs))

  /** Log-likelihood of the observation sequence under this model. */
  def logLikelihood(obs: IndexedSeq[Int]): Double = asIoHmm.logLikelihood(Hmm.oneInput(obs))

  /** Most likely hidden state sequence (Viterbi, log-space). */
  def viterbi(obs: IndexedSeq[Int]): Array[Int] = {
    val T = obs.length
    if (T == 0) return Array.emptyIntArray
    val delta = Array.ofDim[Double](T, nStates)
    val psi   = Array.ofDim[Int](T, nStates)
    def lg(x: Double): Double = math.log(math.max(x, 1e-300))
    var i = 0
    while (i < nStates) { delta(0)(i) = lg(pi(i)) + lg(b(i)(obs(0))); i += 1 }
    var t = 1
    while (t < T) {
      var j = 0
      while (j < nStates) {
        var best = Double.NegativeInfinity; var arg = 0; var k = 0
        while (k < nStates) {
          val v = delta(t - 1)(k) + lg(a(k)(j))
          if (v > best) { best = v; arg = k }
          k += 1
        }
        delta(t)(j) = best + lg(b(j)(obs(t)))
        psi(t)(j) = arg
        j += 1
      }
      t += 1
    }
    val path = Array.ofDim[Int](T)
    path(T - 1) = delta(T - 1).indices.maxBy(delta(T - 1))
    t = T - 2
    while (t >= 0) { path(t) = psi(t + 1)(path(t + 1)); t -= 1 }
    path
  }

  /** One-step-ahead observation distribution p(o_{T+1} = m | obs). On an empty
    * history this is the marginal emission under the initial distribution.
    */
  def nextObsDist(obs: IndexedSeq[Int]): Array[Double] =
    asIoHmm.nextObsDist(Hmm.oneInput(obs), Array(1.0))

  /** Most likely next observation symbol. */
  def predictNext(obs: IndexedSeq[Int]): Int = {
    val d = nextObsDist(obs)
    d.indices.maxBy(d)
  }
}

object Hmm {

  private[hmm] val Tol: Double = 1e-5 // Baum-Welch stops below this log-likelihood gain
  private val Restarts: Int = 3        // EM runs of trainBest, one per seed

  /** Normalize a row in place; a degenerate all-zero row becomes uniform. */
  private[hmm] def normalize(row: Array[Double]): Unit = {
    var s = 0.0; var i = 0
    while (i < row.length) { s += row(i); i += 1 }
    if (s <= 0.0) { i = 0; while (i < row.length) { row(i) = 1.0 / row.length; i += 1 } }
    else { i = 0; while (i < row.length) { row(i) /= s; i += 1 } }
  }

  /** Row-normalized random initialization; strictly positive entries so every
    * transition/emission stays reachable during Baum-Welch. Draws the same
    * numbers as a one-input [[IoHmm.random]].
    */
  def random(nStates: Int, nObs: Int, seed: Long): Hmm =
    ofOneInput(IoHmm.random(nStates, 1, nObs, seed))

  private def oneInput(obs: IndexedSeq[Int]): IndexedSeq[(Int, Int)] = obs.map((0, _))

  private def ofOneInput(m: IoHmm): Hmm = Hmm(m.pi, m.a(0), m.b(0))

  /** Relabel hidden states into a canonical order — by dominant emission
    * symbol (ties by full emission row). Baum-Welch state identities are
    * arbitrary per training run; canonical labels make the decoded states of
    * *different* models comparable, which the BiHMM's b-layer needs when it
    * conditions on states decoded by many per-producer a-HMMs.
    */
  def canonicalize(h: Hmm): Hmm = {
    val order = (0 until h.nStates)
      .sortBy(j => (h.b(j).indices.maxBy(h.b(j)), -h.b(j).max))
      .toArray
    Hmm(
      Array.tabulate(h.nStates)(k => h.pi(order(k))),
      Array.tabulate(h.nStates, h.nStates)((k, l) => h.a(order(k))(order(l))),
      Array.tabulate(h.nStates, h.nObs)((k, m) => h.b(order(k))(m)),
    )
  }

  /** [[train]] with random restarts: EM is run from [[Restarts]] seeds and the
    * highest-likelihood model wins. Used for the a-HMM layer, where a bad
    * local optimum corrupts every downstream decoded producer state.
    */
  def trainBest(obs: IndexedSeq[Int], nStates: Int, nObs: Int,
                maxIter: Int = 40, seed: Long = 7): Hmm = {
    val models = (0 until Restarts).map(r => train(obs, nStates, nObs, maxIter, seed + 1000L * r))
    if (obs.isEmpty) models.head else models.maxBy(_.logLikelihood(obs))
  }

  /** Baum-Welch (EM) estimation of `λ = ⟨π, A, B⟩` from a single observation
    * sequence (paper: "We use Baum-Welch algorithm [32] to learn all three
    * parameters"): [[IoHmm.baumWelch]] on the one-input view, from a random
    * start.
    */
  def train(obs: IndexedSeq[Int], nStates: Int, nObs: Int,
            maxIter: Int = 40, seed: Long = 7): Hmm = {
    require(nStates >= 1, "nStates must be >= 1")
    require(nObs >= 1, "nObs must be >= 1")
    val init = random(nStates, nObs, seed)
    if (obs.isEmpty) init
    else ofOneInput(IoHmm.baumWelch(init.asIoHmm, oneInput(obs), maxIter))
  }
}
