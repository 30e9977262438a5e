package repro.baselines

import org.apache.spark.sql.functions._
import repro.core._

/** GTM [37] (Zhao & Han): Gaussian truth model for continuous data only.
  * Truth prior N(0, Model.PriorVar) in z-space; worker u's answers ~ N(truth,
  * sigma_u^2). EM with closed forms: the E-step is a precision-weighted
  * Gaussian posterior per cell, the M-step sets sigma_u^2 to the mean
  * expected squared deviation of u's answers.
  */
final case class Gtm(iters: Int = 10) extends InferenceMethod {
  val name = "GTM"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val contCols = ds.continuousCols.map(_.col)
    if (contCols.isEmpty) return Seq.empty
    val (norm, stats) = Model.normalized(ds)
    val ans = norm.filter(!col("isCat")).cache()
    ans.count()
    val workers = ans.select("worker").distinct().collect().map(_.getInt(0))
    var sigma2: Map[Int, Double] = workers.map(_ -> 1.0).toMap

    def eStep(): Map[(Int, Int), (Double, Double)] = {
      val s2 = sigma2
      val wUdf = udf { (u: Int) => 1.0 / s2(u) }
      Model.gaussianPosterior(ans.withColumn("w", wUdf(col("worker")))
        .groupBy("row", "col")
        .agg(sum("w").as("sw"), sum(expr("w * value")).as("swv"))
        .collect())
    }

    var post = eStep()
    var it = 0
    while (it < iters) {
      val p = post
      val devUdf = udf { (i: Int, j: Int, v: Double) =>
        val (mu, tphi) = p((i, j))
        (v - mu) * (v - mu) + tphi
      }
      sigma2 = ans
        .withColumn("d", devUdf(col("row"), col("col"), col("value")))
        .groupBy("worker").agg(avg("d").as("s2"))
        .collect()
        .map(r => r.getInt(0) -> math.min(100.0, math.max(1e-4, r.getDouble(1))))
        .toMap
      post = eStep()
      it += 1
    }
    ans.unpersist()
    Model.denormalize(
      post.map { case ((i, j), (mu, _)) => TruthCell(i, j, mu) }.toSeq, stats)
  }
}
