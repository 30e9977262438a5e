package repro.baselines

import repro.core._

/** GTM [37] (Zhao & Han): Gaussian truth model for continuous data only.
  * Truth prior N(0, Model.PriorVar) in z-space; worker u's answers ~ N(truth,
  * sigma_u^2). EM with closed forms: the E-step is a precision-weighted
  * Gaussian posterior per cell, the M-step sets sigma_u^2 to the mean
  * expected squared deviation of u's answers.
  */
final case class Gtm(iters: Int = 10) extends InferenceMethod {
  val name = "GTM"

  def infer(t: AnswerTable): Seq[TruthCell] = {
    var sigma2 = Array.fill(t.workerIds.length)(1.0)
    def eStep() = t.gaussianPosteriors(k => 1.0 / sigma2(t.worker(k)))
    var (mu, tphi) = eStep()
    for (_ <- 0 until iters) {
      sigma2 = t.meanPer(t.contAnswers, t.worker, sigma2.length) { k =>
        val d = t.value(k) - mu(t.cell(k))
        d * d + tphi(t.cell(k))
      }.map(s2 => math.min(100.0, math.max(1e-4, s2)))
      val (m, v) = eStep()
      mu = m; tphi = v
    }
    t.contCells.toSeq.map(c => t.estimate(c, mu(c)))
  }
}
