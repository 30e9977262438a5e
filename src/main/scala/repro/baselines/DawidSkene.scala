package repro.baselines

import org.apache.spark.sql.functions._
import repro.core._
import repro.core.MathUtil.{argmax, softmax}

/** Dawid & Skene [9] — the "EM" row of Table 7. Classic confusion-matrix EM
  * applied per categorical column (the matrices of different columns live in
  * different label spaces, so they are estimated jointly in one pipeline but
  * never shared — exactly the per-attribute independence T-Crowd argues
  * against).
  *
  * Spark layout: answers are a cached DataFrame; the E-step explodes each
  * answer into per-label log-likelihood contributions and sums them with one
  * `groupBy(row,col,label)`; the M-step accumulates posterior-weighted
  * confusion counts with one `groupBy(worker,col,label,answer)`. Confusion
  * matrices are Laplace-smoothed (`Delta`) since per-worker-per-column data
  * is sparse — without smoothing D&S collapses, which is the behaviour the
  * paper's Table 7 hints at (EM below Majority Voting on Celebrity).
  */
final case class DawidSkene(iters: Int = 8) extends InferenceMethod {
  val name = "EM"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val labelCount = ds.labelCount.filter(_._2 > 0)
    if (labelCount.isEmpty) return Seq.empty
    val catCols = labelCount.keySet.toSeq
    val ans = ds.answers.filter(col("col").isin(catCols: _*)).cache()
    ans.count()

    // init: soft vote fractions
    var post: Map[(Int, Int), Array[Double]] = ans
      .groupBy("row", "col", "value").agg(count(lit(1)).as("n")).collect()
      .groupBy(r => (r.getInt(0), r.getInt(1)))
      .map { case (cell @ (i, j), rs) =>
        val l = labelCount(j)
        val counts = Array.fill(l)(0.1)
        rs.foreach(r => counts(Model.label(i, j, r.getDouble(2), l)) += r.getLong(3).toDouble)
        val z = counts.sum
        cell -> counts.map(_ / z)
      }

    var it = 0
    while (it < iters) {
      // ---- M-step: confusion counts c[u,j,z,a] = sum_i post(i,j)(z) [a_ij^u = a]
      val p = post; val lc = labelCount
      val postUdf = udf { (i: Int, j: Int) => p((i, j)).toSeq }
      val counts = ans
        .select(col("worker"), col("col"), col("value"),
                posexplode(postUdf(col("row"), col("col"))).as(Seq("z", "pz")))
        .groupBy("worker", "col", "z", "value")
        .agg(sum("pz").as("c"))
        .collect()
        .map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3).toInt) -> r.getDouble(4))
        .toMap
      val denom: Map[(Int, Int, Int), Double] = counts.toSeq
        .map { case ((u, j, z, _), c) => (u, j, z) -> c }
        .groupBy(_._1).map { case (k, vs) => k -> vs.map(_._2).sum }
      val d = DawidSkene.Delta
      // column priors = average posterior mass per label
      val prior: Map[Int, Array[Double]] = post.toSeq.groupBy(_._1._2).map { case (j, cells) =>
        val l = lc(j)
        val acc = Array.fill(l)(1e-6)
        cells.foreach { case (_, arr) => arr.indices.foreach(z => acc(z) += arr(z)) }
        val s = acc.sum
        j -> acc.map(_ / s)
      }

      // ---- E-step: post(i,j)(z) ∝ prior_j(z) * prod_u pi(u,j,z,a^u), where
      // pi(u,j,z,a) = (counts(u,j,z,a) + Delta) / (denom(u,j,z) + Delta * L)
      val scoreUdf = udf { (u: Int, j: Int, a: Int) =>
        val l = lc(j)
        (0 until l).map { z =>
          val num = counts.getOrElse((u, j, z, a), 0.0) + d
          val den = denom.getOrElse((u, j, z), 0.0) + d * l
          math.log(num / den)
        }
      }
      val scores = ans
        .select(col("row"), col("col"),
                posexplode(scoreUdf(col("worker"), col("col"), col("value").cast("int")))
                  .as(Seq("z", "s")))
        .groupBy("row", "col", "z")
        .agg(sum("s").as("score"))
        .collect()
        .groupBy(r => (r.getInt(0), r.getInt(1)))
      post = scores.map { case (cell @ (_, j), rs) =>
        val l = labelCount(j)
        val raw = Array.fill(l)(0.0)
        rs.foreach(r => raw(r.getInt(2)) = r.getDouble(3))
        val pr = prior(j)
        cell -> softmax((0 until l).map(z => raw(z) + math.log(pr(z)))).toArray
      }
      it += 1
    }
    ans.unpersist()
    post.map { case ((i, j), probs) => TruthCell(i, j, argmax(probs).toDouble) }.toSeq
  }
}

object DawidSkene {
  /** Laplace smoothing added to every confusion-matrix count. */
  val Delta = 0.3
}
