package repro.core

import repro.core.MathUtil._

/** Inherent information gain (paper §5.1): the expected drop in the entropy
  * of a cell's truth distribution if the incoming worker answers it. Shannon
  * entropy for categorical cells, differential entropy for continuous cells —
  * the *delta* makes the two comparable (the paper's discretization
  * argument), so a single ranking covers both datatypes.
  */
object InfoGain {

  /** Gain for a continuous cell. The Gaussian posterior-variance update
    * `1/phi' = 1/phi + 1/v` does not depend on the answer value, so the
    * expectation in Eq. 6 collapses to the closed form
    * `0.5 * ln(1 + tPhi / answerVar)` — unit-tested against brute-force
    * re-inference.
    *
    * @param tPhi      current truth-posterior variance of the cell
    * @param answerVar variance of the worker's answer on this cell
    *                  (`alpha_i * beta_j * phi_u`, or the structure-aware
    *                  replacement)
    */
  def continuousGain(tPhi: Double, answerVar: Double): Double =
    0.5 * math.log1p(math.max(tPhi, 1e-300) / math.max(answerVar, 1e-12))

  /** Gain for a categorical cell: exact expectation over the worker's
    * predictive answer distribution.
    *
    * @param probs current truth posterior over the label set
    * @param q     probability the worker answers this cell correctly
    */
  def categoricalGain(probs: Array[Double], q: Double): Double = {
    val l = probs.length
    if (l < 2) return 0.0
    val qc = clampProb(q)
    val wrong = (1.0 - qc) / (l - 1)
    val h0 = shannonEntropy(probs)
    var expected = 0.0
    var z = 0
    while (z < l) {
      // predictive probability of answer z
      val pa = probs(z) * qc + (1.0 - probs(z)) * wrong
      if (pa > 1e-15) expected += pa * posteriorEntropy(probs, qc, wrong, z)
      z += 1
    }
    h0 - expected
  }

  /** [[categoricalGain]] in the closed form `I(T; A) = H(A) - H(A | T)`:
    * the entropy of the predictive answer distribution less the entropy of
    * the worker's noise, `-q ln q - (1 - q) ln((1 - q) / (L - 1))`, which is
    * the same for every true label. The two agree up to rounding (and the
    * answers of predictive probability at most 1e-15, which categoricalGain
    * leaves out); this takes L + 2 logarithms instead of about L^2.
    */
  def mutualInformation(probs: Array[Double], q: Double): Double = {
    val l = probs.length
    if (l < 2) return 0.0
    val qc = clampProb(q)
    val wrong = (1.0 - qc) / (l - 1)
    var h = 0.0
    var z = 0
    while (z < l) {
      val pa = probs(z) * qc + (1.0 - probs(z)) * wrong
      if (pa > 0) h -= pa * math.log(pa)
      z += 1
    }
    h + qc * math.log(qc) + (1.0 - qc) * math.log(wrong)
  }

  /** `shannonEntropy(answerPosterior(probs, q, a))` without building the
    * posterior: the same products, normaliser, quotients and entropy terms,
    * in the same order, so the result is the same to the bit.
    * `wrong = (1 - q) / (L - 1)`.
    */
  private def posteriorEntropy(probs: Array[Double], q: Double, wrong: Double, a: Int): Double = {
    val l = probs.length
    var norm = 0.0
    var t = 0
    while (t < l) { norm += probs(t) * (if (t == a) q else wrong); t += 1 }
    var s = 0.0
    t = 0
    while (t < l) {
      val p = probs(t) * (if (t == a) q else wrong) / norm
      if (p > 0) s += p * math.log(p)
      t += 1
    }
    -s
  }

  /** Truth posterior of a categorical cell after one answer `a` from a worker
    * who is right with probability `q` and otherwise answers uniformly among
    * the other labels.
    */
  def answerPosterior(probs: Array[Double], q: Double, a: Int): Array[Double] = {
    val l = probs.length
    val wrong = (1.0 - q) / (l - 1)
    val post = new Array[Double](l)
    var norm = 0.0
    var t = 0
    while (t < l) {
      post(t) = probs(t) * (if (t == a) q else wrong)
      norm += post(t)
      t += 1
    }
    t = 0
    while (t < l) { post(t) /= norm; t += 1 }
    post
  }

  /** Uniform entropy `H(T_ij)` of §5.1 (for the Entropy heuristic, which the
    * paper shows is biased toward continuous cells). Only the argument of the
    * cell's datatype is evaluated.
    */
  def uniformEntropy(isCategorical: Boolean, probs: => Array[Double], tPhi: => Double): Double =
    if (isCategorical) shannonEntropy(probs) else differentialEntropy(tPhi)
}
