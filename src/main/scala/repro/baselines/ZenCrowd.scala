package repro.baselines

import org.apache.spark.sql.functions._
import repro.core._
import repro.core.MathUtil.{argmax, clampProb}

/** ZenCrowd [10]: Dawid&Skene collapsed to a single reliability `r_u` per
  * worker — correct with probability `r_u`, wrong answers uniform over the
  * remaining labels. EM with a closed-form M-step (`r_u` = mean posterior
  * mass of the worker's answered labels). Categorical columns only.
  */
final case class ZenCrowd(iters: Int = 10) extends InferenceMethod {
  val name = "Zencrowd"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val labelCount = ds.labelCount.filter(_._2 > 0)
    if (labelCount.isEmpty) return Seq.empty
    val ans = ds.answers.filter(col("col").isin(labelCount.keySet.toSeq: _*)).cache()
    ans.count()
    val workers = ans.select("worker").distinct().collect().map(_.getInt(0))
    var rel: Map[Int, Double] = workers.map(_ -> 0.8).toMap

    def eStep(): Map[(Int, Int), Array[Double]] = {
      val r = rel; val lc = labelCount
      val lamUdf = udf { (u: Int, j: Int) =>
        val q = clampProb(r(u))
        math.log(q) - math.log((1.0 - q) / (lc(j) - 1))
      }
      Model.labelPosterior(ans.withColumn("lam", lamUdf(col("worker"), col("col")))
        .groupBy("row", "col", "value")
        .agg(sum("lam").as("score"))
        .collect(), labelCount)
    }

    var post = eStep()
    var it = 0
    while (it < iters) {
      val p = post
      val pUdf = udf { (i: Int, j: Int, a: Int) => p((i, j))(a) }
      rel = ans
        .withColumn("pa", pUdf(col("row"), col("col"), col("value").cast("int")))
        .groupBy("worker").agg(avg("pa").as("r"))
        .collect()
        .map(r => r.getInt(0) -> math.min(0.99, math.max(0.05, r.getDouble(1))))
        .toMap
      post = eStep()
      it += 1
    }
    ans.unpersist()
    post.map { case ((i, j), probs) => TruthCell(i, j, argmax(probs).toDouble) }.toSeq
  }
}
