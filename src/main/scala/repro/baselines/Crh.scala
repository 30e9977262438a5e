package repro.baselines

import repro.core._

/** CRH [18]: heterogeneous truth discovery by loss minimization. Alternates
  * (a) truth update — weighted vote for categorical cells, weighted mean for
  * continuous cells — and (b) source-weight update
  * `w_u = ln(sum_u' d_u' / d_u)` where `d_u` is u's total loss (0/1 loss on
  * categorical, squared loss on z-normalized continuous values — the z-step
  * realizes CRH's per-column loss normalization).
  */
final case class Crh(iters: Int = 10) extends InferenceMethod {
  val name = "CRH"

  def infer(t: AnswerTable): Seq[TruthCell] = {
    var weights = Array.fill(t.workerIds.length)(1.0)
    var est = Array.empty[Double]
    for (_ <- 0 until iters) {
      est = BaselineUtil.weightedTruth(t, weights)
      val d = BaselineUtil.workerLoss(t, est).map(math.max(_, 1e-6))
      val total = d.sum
      weights = d.map(du => math.log(total / du))
    }
    est.indices.map(c => t.estimate(c, est(c)))
  }
}
