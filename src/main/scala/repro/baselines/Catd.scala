package repro.baselines

import repro.core._
import repro.core.MathUtil.chiSquareQuantile

/** CATD [17]: confidence-aware truth discovery for long-tail sources. A
  * worker's weight is the *lower* (alpha/2 = 2.5%) chi-square quantile at
  * df = #answers divided by the worker's total (normalized squared / 0-1)
  * loss — the lower confidence bound of the precision, so workers with few
  * answers get a strongly tempered weight (chi2_{0.025}(1) ~ 1e-3 while
  * chi2_{0.025}(n)/n -> 1). Truth updates are the same weighted vote /
  * weighted mean as CRH.
  */
final case class Catd(iters: Int = 5) extends InferenceMethod {
  val name = "CATD"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val t = Model.answerTable(ds)
    val n = new Array[Int](t.workerIds.length)
    t.worker.foreach(n(_) += 1)
    // Wilson–Hilferty can go nonpositive in the deep lower tail at df=1-2;
    // floor the quantile at a tiny positive weight.
    val chi2 = n.map(nu => math.max(1e-3, chiSquareQuantile(Catd.Quantile, nu)))
    var weights = Array.fill(t.workerIds.length)(1.0)
    var est = Array.empty[Double]
    for (_ <- 0 until iters) {
      est = BaselineUtil.weightedTruth(t, weights)
      val d = BaselineUtil.workerLoss(t, est)
      weights = d.indices.map(u => chi2(u) / math.max(d(u), 1e-6)).toArray
    }
    est.indices.map(c => t.estimate(c, est(c)))
  }
}

object Catd {
  /** Lower tail of the chi-square quantile that sets a worker's weight. */
  val Quantile = 0.025
}
