package repro.hmm

import scala.util.Random

/** Input-conditioned discrete HMM — the paper's b-HMM layer (Section IV-A).
  *
  * The consumer's hidden-state transitions and emissions are conditioned on
  * the hidden state `Z_k` of the producer whose item the consumer browsed:
  * `a(z)(i)(j) = p(U_j | U_i, Z_k=z)` and `b(z)(j)(m) = p(c_m | U_j, Z_k=z)`.
  * The producer state `z_t` is *observed* at training time (decoded from the
  * a-HMM layer with Viterbi), which is exactly the paper's reformulation of
  * the joint state `U' = (U_i, Z_k)`: conditioning on the decoded `z`
  * recovers a standard Baum-Welch over time-varying matrices.
  *
  * An observation step is a pair `(z, c)` — producer hidden state and the
  * browsed item's category.
  */
final case class IoHmm(pi: Array[Double],
                       a: Array[Array[Array[Double]]],
                       b: Array[Array[Array[Double]]]) {

  /** Number of consumer hidden states N^(b). */
  def nStates: Int = pi.length

  /** Number of producer hidden states (the conditioning input alphabet). */
  def nInputs: Int = a.length

  /** Number of observation symbols (categories) M. */
  def nObs: Int = b(0)(0).length

  /** Scaled forward pass over (input, observation) pairs.
    *
    * @return (alphaHat, scales) where `alphaHat(t)(i)` is the normalized
    *         forward probability of state i after observing `obs(0..t)` and
    *         `scales(t)` is the per-step normalizer; the log-likelihood of the
    *         sequence is `scales.map(math.log).sum`.
    */
  def forward(obs: IndexedSeq[(Int, Int)]): (Array[Array[Double]], Array[Double]) = {
    val T = obs.length
    val alpha  = Array.ofDim[Double](T, nStates)
    val scales = Array.ofDim[Double](T)
    var t = 0
    while (t < T) {
      val (z, c) = obs(t)
      var norm = 0.0
      var i = 0
      while (i < nStates) {
        val prior =
          if (t == 0) pi(i)
          else {
            var s = 0.0; var j = 0
            while (j < nStates) { s += alpha(t - 1)(j) * a(z)(j)(i); j += 1 }
            s
          }
        val v = prior * b(z)(i)(c)
        alpha(t)(i) = v
        norm += v
        i += 1
      }
      // A zero-probability step (symbol never emitted under current params)
      // would poison the rest of the pass; fall back to a uniform posterior.
      if (norm <= 0.0) {
        var j = 0; while (j < nStates) { alpha(t)(j) = 1.0 / nStates; j += 1 }
        scales(t) = 1e-300
      } else {
        var j = 0; while (j < nStates) { alpha(t)(j) /= norm; j += 1 }
        scales(t) = norm
      }
      t += 1
    }
    (alpha, scales)
  }

  /** Scaled backward pass matching [[forward]]'s scales. `beta(t)(i)` is
    * normalized by the same per-step scale as the forward pass, so
    * `alpha·beta` yields the smoothed state posterior directly.
    */
  def backward(obs: IndexedSeq[(Int, Int)], scales: Array[Double]): Array[Array[Double]] = {
    val T = obs.length
    val beta = Array.ofDim[Double](T, nStates)
    var i = 0
    while (i < nStates) { beta(T - 1)(i) = 1.0; i += 1 }
    var t = T - 2
    while (t >= 0) {
      val (zn, cn) = obs(t + 1)
      var ii = 0
      while (ii < nStates) {
        var s = 0.0; var j = 0
        while (j < nStates) { s += a(zn)(ii)(j) * b(zn)(j)(cn) * beta(t + 1)(j); j += 1 }
        beta(t)(ii) = s / math.max(scales(t + 1), 1e-300)
        ii += 1
      }
      t -= 1
    }
    beta
  }

  /** Filtered consumer-state distribution after a (z, c) history. */
  def filtered(obs: IndexedSeq[(Int, Int)]): Array[Double] =
    if (obs.isEmpty) pi.clone()
    else forward(obs)._1.last.clone()

  /** Log-likelihood of the (input, observation) sequence. */
  def logLikelihood(obs: IndexedSeq[(Int, Int)]): Double =
    if (obs.isEmpty) 0.0
    else forward(obs)._2.map(s => math.log(math.max(s, 1e-300))).sum

  /** One-step-ahead category distribution, marginalizing over the next
    * producer state with `zDist` — in the recommender, `zDist` comes from the
    * a-HMM one-step state predictions of the producers the consumer follows,
    * weighted by the consumer's producer preference (Section IV-C).
    */
  def nextObsDist(obs: IndexedSeq[(Int, Int)], zDist: Array[Double]): Array[Double] = {
    require(zDist.length == nInputs, s"zDist size ${zDist.length} != nInputs $nInputs")
    val filt = filtered(obs)
    val out = Array.ofDim[Double](nObs)
    var z = 0
    while (z < nInputs) {
      if (zDist(z) > 0) {
        var j = 0
        while (j < nStates) {
          var stateNext = 0.0
          if (obs.isEmpty) stateNext = filt(j)
          else { var i = 0; while (i < nStates) { stateNext += filt(i) * a(z)(i)(j); i += 1 } }
          var m = 0
          while (m < nObs) { out(m) += zDist(z) * stateNext * b(z)(j)(m); m += 1 }
          j += 1
        }
      }
      z += 1
    }
    out
  }

  /** Most likely next category given the producer-state mixture. */
  def predictNext(obs: IndexedSeq[(Int, Int)], zDist: Array[Double]): Int = {
    val d = nextObsDist(obs, zDist)
    d.indices.maxBy(d)
  }
}

object IoHmm {

  private val ShrinkTau: Double = 8.0   // shrinkToBase τ of the conditioned emissions
  private val ShrinkTauA: Double = 64.0 // shrinkToBase τ of the conditioned transitions
  private val ZLaplace: Double = 0.5    // Laplace pseudo-count of every zTransition cell

  /** Row-normalized strictly-positive random initialization. */
  def random(nStates: Int, nInputs: Int, nObs: Int, seed: Long): IoHmm = {
    val rnd = new Random(seed)
    def row(n: Int): Array[Double] = {
      val r = Array.fill(n)(0.2 + rnd.nextDouble())
      Hmm.normalize(r); r
    }
    IoHmm(
      row(nStates),
      Array.fill(nInputs, nStates)(row(nStates)),
      Array.fill(nInputs, nStates)(row(nObs)),
    )
  }

  /** Lift a single-layer HMM into the input-conditioned family: every z-slice
    * starts as an exact copy of the base parameters, so the initial model is
    * behaviourally identical to the base and EM only *adds* input structure.
    */
  private def fromBase(base: Hmm, nInputs: Int): IoHmm = IoHmm(
    base.pi.clone(),
    Array.fill(nInputs)(base.a.map(_.clone())),
    Array.fill(nInputs)(base.b.map(_.clone())))

  /** Hierarchical shrinkage: each z-slice is interpolated back toward the
    * base single-layer parameters with strength `tau / (n_z + tau)`, where
    * `n_z` counts the steps that carried input z. Slices that saw little data
    * back off to the base estimate instead of overfitting a handful of steps;
    * state identities stay aligned with the base because EM started from it.
    */
  private def shrinkToBase(m: IoHmm, base: Hmm, obs: IndexedSeq[(Int, Int)]): IoHmm = {
    if (m.nInputs <= 1) return m
    val nz = Array.ofDim[Double](m.nInputs)
    obs.foreach { case (z, _) => nz(z) += 1.0 }
    def blend(slices: Array[Array[Array[Double]]], target: Array[Array[Double]],
              cols: Int, tau: Double): Array[Array[Array[Double]]] = {
      val out = Array.tabulate(m.nInputs, m.nStates, cols) { (z, j, c) =>
        val w = nz(z) / (nz(z) + tau)
        w * slices(z)(j)(c) + (1 - w) * target(j)(c)
      }
      out.foreach(_.foreach(Hmm.normalize))
      out
    }
    IoHmm(m.pi, blend(m.a, base.a, m.nStates, ShrinkTauA), blend(m.b, base.b, m.nObs, ShrinkTau))
  }

  /** One-step transition matrix of the observed input sequence itself
    * (Laplace-smoothed row-normalized bigram counts). Used to *forecast* the
    * next producer state from the last decoded one when predicting the next
    * category — the a-layer dynamics as seen through this consumer's stream.
    */
  def zTransition(obs: IndexedSeq[(Int, Int)], nInputs: Int): Array[Array[Double]] = {
    val m = Array.fill(nInputs, nInputs)(ZLaplace)
    obs.map(_._1).sliding(2).foreach {
      case Seq(a, b) => m(a)(b) += 1.0
      case _ => ()
    }
    m.foreach(Hmm.normalize)
    m
  }

  /** Forecast distribution of the next input state given an observed history:
    * the learned bigram transition applied to the last decoded state, falling
    * back to the history's state histogram (then uniform) when empty.
    */
  def zForecast(obs: IndexedSeq[(Int, Int)], nInputs: Int): Array[Double] =
    zForecast(obs, zTransition(obs, nInputs))

  /** [[zForecast]] given the history's [[zTransition]] `tr`. */
  def zForecast(obs: IndexedSeq[(Int, Int)], tr: Array[Array[Double]]): Array[Double] =
    obs.lastOption match {
      case Some((zLast, _)) if zLast >= 0 && zLast < tr.length => tr(zLast).clone()
      case _ => Array.fill(tr.length)(1.0 / tr.length)
    }

  /** Train the input-conditioned model. A single-layer HMM is trained on the
    * category sequence first (the same Baum-Welch as the a-HMM); the
    * two-layer model starts from that converged base, runs input-conditioned
    * EM that accumulates sufficient statistics into the `z`-indexed slice
    * active at each step, and finally shrinks sparse slices back toward the
    * base ([[shrinkToBase]]). This is the paper's "train the b-HMM by the
    * same way used in the a-HMM" after the joint-state reformulation, made
    * robust to the short per-user histories: with no producer signal the
    * model degrades gracefully to the single-layer HMM instead of below it.
    * Conditioned transitions ([[ShrinkTauA]]) are regularized harder than
    * conditioned emissions ([[ShrinkTau]]) — the per-z emission shift carries
    * the producer signal, while per-z transition estimates are the noisiest.
    */
  def train(obs: IndexedSeq[(Int, Int)], nStates: Int, nInputs: Int, nObs: Int,
            maxIter: Int = 40, seed: Long = 11): IoHmm = {
    require(nStates >= 1 && nInputs >= 1 && nObs >= 1, "dimensions must be >= 1")
    val T = obs.length
    if (T == 0) return random(nStates, nInputs, nObs, seed)
    obs.foreach { case (z, c) =>
      require(z >= 0 && z < nInputs, s"input $z out of range [0,$nInputs)")
      require(c >= 0 && c < nObs, s"obs $c out of range [0,$nObs)")
    }
    val base = Hmm.train(obs.map(_._2), nStates, nObs, maxIter, seed)
    val model = baumWelch(fromBase(base, nInputs), obs, maxIter)
    shrinkToBase(model, base, obs)
  }

  /** Baum-Welch (EM) from `init`: input-conditioned sufficient statistics go
    * to the `z`-indexed slice active at each step. Iterates until the
    * log-likelihood gain drops below [[Hmm.Tol]] or `maxIter` is hit. A small
    * Dirichlet-style floor keeps rows strictly positive so Viterbi and
    * prediction never hit log(0).
    */
  private[hmm] def baumWelch(init: IoHmm, obs: IndexedSeq[(Int, Int)], maxIter: Int): IoHmm = {
    val T = obs.length
    val n = init.nStates
    val nInputs = init.nInputs
    val nObs = init.nObs
    var model = init
    var prevLl = Double.NegativeInfinity
    var iter = 0
    var done = false
    while (iter < maxIter && !done) {
      val (alpha, scales) = model.forward(obs)
      val beta = model.backward(obs, scales)
      val gamma = Array.ofDim[Double](T, n)
      var t = 0
      while (t < T) {
        var s = 0.0; var i = 0
        while (i < n) { gamma(t)(i) = alpha(t)(i) * beta(t)(i); s += gamma(t)(i); i += 1 }
        if (s > 0) { i = 0; while (i < n) { gamma(t)(i) /= s; i += 1 } }
        t += 1
      }
      val aNum = Array.ofDim[Double](nInputs, n, n)
      val bNum = Array.ofDim[Double](nInputs, n, nObs)
      t = 0
      while (t < T - 1) {
        val (zn, cn) = obs(t + 1)
        var denom = 0.0
        var i = 0
        while (i < n) {
          var j = 0
          while (j < n) {
            denom += alpha(t)(i) * model.a(zn)(i)(j) * model.b(zn)(j)(cn) * beta(t + 1)(j)
            j += 1
          }
          i += 1
        }
        if (denom > 0) {
          i = 0
          while (i < n) {
            var j = 0
            while (j < n) {
              val xi = alpha(t)(i) * model.a(zn)(i)(j) * model.b(zn)(j)(cn) * beta(t + 1)(j) / denom
              aNum(zn)(i)(j) += xi
              j += 1
            }
            i += 1
          }
        }
        t += 1
      }
      t = 0
      while (t < T) {
        val (z, c) = obs(t)
        var i = 0
        while (i < n) { bNum(z)(i)(c) += gamma(t)(i); i += 1 }
        t += 1
      }
      val eps = 1e-6
      val newPi = gamma(0).clone()
      Hmm.normalize(newPi)
      val newA = Array.tabulate(nInputs, n, n)((z, i, j) => aNum(z)(i)(j) + eps)
      newA.foreach(_.foreach(Hmm.normalize))
      val newB = Array.tabulate(nInputs, n, nObs)((z, j, m) => bNum(z)(j)(m) + eps)
      newB.foreach(_.foreach(Hmm.normalize))
      model = IoHmm(newPi, newA, newB)
      val ll = scales.map(s => math.log(math.max(s, 1e-300))).sum
      if (ll - prevLl < Hmm.Tol && iter > 0) done = true
      prevLl = ll
      iter += 1
    }
    model
  }
}
