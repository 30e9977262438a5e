package repro.baselines

import org.apache.spark.sql.functions._
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
    val (norm, stats) = Model.normalized(ds)
    val ans = norm.cache()
    ans.count()
    var weights: Map[Int, Double] =
      ans.select("worker").distinct().collect().map(_.getInt(0) -> 1.0).toMap

    var est: BaselineUtil.Estimates = (Map.empty, Map.empty)

    var it = 0
    while (it < iters) {
      est = BaselineUtil.weightedTruth(ans, weights, ds.labelCount)
      weights = BaselineUtil.withLoss(ans, est)
        .groupBy("worker").agg(sum("loss").as("d"), count(lit(1)).as("n"))
        .collect()
        .map { r =>
          val du = math.max(r.getDouble(1), 1e-6)
          // Wilson–Hilferty can go nonpositive in the deep lower tail at
          // df=1-2; floor the quantile at a tiny positive weight.
          val chi2 = math.max(1e-3, chiSquareQuantile(Catd.Quantile, r.getLong(2).toInt))
          r.getInt(0) -> chi2 / du
        }
        .toMap
      it += 1
    }
    ans.unpersist()
    BaselineUtil.assemble(est, stats)
  }
}

object Catd {
  /** Lower tail of the chi-square quantile that sets a worker's weight. */
  val Quantile = 0.025
}
