package repro.core

import repro.core.MathUtil._

/** The gain formulas the pick's checks read: Eq. 6's categorical gain as
  * the expectation that builds every answer's posterior (the closed form of
  * [[InfoGain.categoricalGain]] agrees with it to rounding, `InfoGainProps`),
  * the same closed form and the entropy over boxed collections, and Struct
  * IG's score of one cell on the dense session (`AssignmentKernelSpec`,
  * `AssignmentSpec`).
  */
object AssignmentReference {

  /** Shannon entropy (nats) over a boxed `Iterable`; zero entries skipped. */
  def shannonEntropy(probs: Iterable[Double]): Double =
    -probs.filter(_ > 0).map(p => p * math.log(p)).sum

  /** The gain of a categorical cell by Eq. 6, `H(T) - E_A[H(T | A)]`: a sum
    * over freshly built answer posteriors, each entropy taken over a boxed
    * `Iterable`.
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
      val pa = probs(z) * qc + (1.0 - probs(z)) * wrong
      if (pa > 1e-15)
        expected += pa * shannonEntropy(InfoGain.answerPosterior(probs, qc, z))
      z += 1
    }
    h0 - expected
  }

  /** The gain of a categorical cell in the closed form `I(T; A) = H(A) -
    * H(A | T)`, over boxed collections: the entropy of the predictive answer
    * distribution less the worker's noise entropy. The arithmetic, and its
    * order, is that of [[InfoGain.categoricalGain]].
    */
  def mutualInformation(probs: Array[Double], q: Double): Double = {
    val l = probs.length
    if (l < 2) return 0.0
    val qc = clampProb(q)
    val wrong = (1.0 - qc) / (l - 1)
    val answers = probs.toSeq.map(p => p * qc + (1.0 - p) * wrong)
    shannonEntropy(answers) + qc * math.log(qc) + (1.0 - qc) * math.log(wrong)
  }

  /** Struct IG's score of cell (i, j) for worker u on the dense
    * [[AssignState]]: [[Assignment.predictedGain]] where the session's
    * correlation model predicts u's error from u's errors on row i, else
    * [[Assignment.inherentGain]].
    */
  def structureAwareGain(st: AssignState, u: Int, i: Int, j: Int): Double = {
    val snap = st.snapshot
    val obs = st.workerErrorsOnRow(u, i)
    st.corr.flatMap(model => if (obs.isEmpty) None else model.predict(j, obs)) match {
      case Some(d) => Assignment.predictedGain(snap, d, i, j)
      case None    => Assignment.inherentGain(snap, snap.workerVariance(u), i, j)
    }
  }
}
