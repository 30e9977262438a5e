package repro.baselines

import org.apache.spark.sql.functions._
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

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val (norm, stats) = Model.normalized(ds)
    val ans = norm.cache()
    ans.count()
    val workers = ans.select("worker").distinct().collect().map(_.getInt(0))
    var weights: Map[Int, Double] = workers.map(_ -> 1.0).toMap

    var est: BaselineUtil.Estimates = (Map.empty, Map.empty)

    var it = 0
    while (it < iters) {
      est = BaselineUtil.weightedTruth(ans, weights, ds.labelCount)
      val d = BaselineUtil.withLoss(ans, est)
        .groupBy("worker").agg(sum("loss").as("d"))
        .collect()
        .map(r => r.getInt(0) -> math.max(r.getDouble(1), 1e-6))
        .toMap
      val total = d.values.sum
      weights = d.map { case (u, du) => u -> math.log(total / du) }
      it += 1
    }
    ans.unpersist()
    BaselineUtil.assemble(est, stats)
  }
}
