package repro.baselines

import org.apache.spark.sql.functions._
import repro.core._
import repro.core.MathUtil.{argmax, clampProb}

/** GLAD [33]: worker ability `a_u` (real; negative = adversarial) and
  * per-task inverse difficulty `b_t > 0`; the probability that worker u
  * answers task t correctly is `sigma(a_u * b_t)`, wrong answers uniform
  * over remaining labels (multi-class generalization of the original binary
  * model). EM where the M-step runs gradient ascent on `a_u` and `ln b_t`
  * via the same explode-to-parameter-key aggregation pattern as T-Crowd.
  * Categorical cells only (GLAD is a labeling model).
  */
final case class Glad(iters: Int = 8, gdSteps: Int = 4) extends InferenceMethod {
  val name = "GLAD"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val labelCount = ds.labelCount.filter(_._2 > 0)
    if (labelCount.isEmpty) return Seq.empty
    val nCols = ds.columns.size
    val ans = ds.answers
      .filter(col("col").isin(labelCount.keySet.toSeq: _*))
      .withColumn("cell", col("row") * nCols + col("col"))
      .cache()
    ans.count()
    val workers = ans.select("worker").distinct().collect().map(_.getInt(0))
    val cells   = ans.select("cell").distinct().collect().map(_.getInt(0))

    var abil = workers.map(_ -> 1.0).toMap
    var lnB  = cells.map(_ -> 0.0).toMap

    def eStep(): Map[(Int, Int), Array[Double]] = {
      val ab = abil; val lb = lnB; val lc = labelCount
      val lamUdf = udf { (u: Int, j: Int, cell: Int) =>
        val qq = clampProb(1.0 / (1.0 + math.exp(-ab(u) * math.exp(lb(cell)))))
        math.log(qq) - math.log((1.0 - qq) / (lc(j) - 1))
      }
      Model.labelPosterior(ans.withColumn("lam", lamUdf(col("worker"), col("col"), col("cell")))
        .groupBy("row", "col", "value")
        .agg(sum("lam").as("score"))
        .collect(), labelCount)
    }

    var post = eStep()
    var it = 0
    while (it < iters) {
      // ---- M-step: ascend E[log-lik]; d/da_u = (p - q) b, d/d ln b = (p - q) a b
      val p = post
      val pUdf = udf { (i: Int, j: Int, a: Int) => p((i, j))(a) }
      val withP = ans
        .withColumn("pa", pUdf(col("row"), col("col"), col("value").cast("int")))
        .cache()
      withP.count()
      var step = 0
      while (step < gdSteps) {
        val ab = abil; val lb = lnB
        val gradUdf = udf { (u: Int, cell: Int, pa: Double) =>
          val b = math.exp(lb(cell))
          val qq = clampProb(1.0 / (1.0 + math.exp(-ab(u) * b)))
          val g = pa - qq
          Seq(g * b, g * ab(u) * b) // (grad a_u, grad ln b)
        }
        val grads = withP
          .withColumn("g", gradUdf(col("worker"), col("cell"), col("pa")))
          .select(explode(array(
            struct(lit("w").as("dim"), col("worker").as("key"), col("g").getItem(0).as("gv")),
            struct(lit("t").as("dim"), col("cell").as("key"), col("g").getItem(1).as("gv")),
          )).as("x"))
          .select(col("x.dim"), col("x.key"), col("x.gv"))
          .groupBy("dim", "key")
          .agg(sum("gv").as("sg"), count(lit(1)).as("n"))
          .collect()
          .map(r => (r.getString(0), r.getInt(1)) -> r.getDouble(2) / r.getLong(3))
          .toMap
        abil = abil.map { case (u, v) =>
          u -> math.min(6.0, math.max(-6.0, v + Glad.Lr * grads.getOrElse(("w", u), 0.0)))
        }
        lnB = lnB.map { case (t, v) =>
          t -> math.min(3.0, math.max(-3.0, v + Glad.Lr * grads.getOrElse(("t", t), 0.0)))
        }
        step += 1
      }
      withP.unpersist()
      post = eStep()
      it += 1
    }
    ans.unpersist()
    post.map { case ((i, j), probs) => TruthCell(i, j, argmax(probs).toDouble) }.toSeq
  }
}

object Glad {
  /** Gradient-ascent learning rate on `a_u` and `ln b_t`. */
  val Lr = 0.3
}
