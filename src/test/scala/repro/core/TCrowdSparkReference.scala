package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.MathUtil._
import repro.core.TCrowd.{Eps, Lr, Tol}

/** Reference oracle for [[TCrowd.infer]]: the T-Crowd EM as Spark
  * DataFrame aggregations, the layout the driver-side kernel replaced. The
  * normalized answer relation is a cached DataFrame; each E-step is a
  * `groupBy(row,col)` aggregation; each M-step gradient step is one
  * aggregation over per-answer gradient contributions exploded to their
  * (worker | row | col) parameter keys. The small parameter vectors
  * round-trip through the driver between steps.
  */
object TCrowdSparkReference {

  def infer(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): ResultMaps = {
    val labelCount = ds.labelCount.filter(_._2 > 0)

    // --- normalized, typed answer relation (cached once) ------------------
    val (norm, stats) = normalized(ds)
    val ans = norm.cache()
    ans.count() // materialize

    val workers = ans.select("worker").distinct().collect().map(_.getInt(0))
    val rows    = ans.select("row").distinct().collect().map(_.getInt(0))
    val cols    = ds.columns.map(_.col)

    var lnPhi   = workers.map(_ -> 0.0).toMap
    var lnAlpha = rows.map(_ -> 0.0).toMap
    var lnBeta  = cols.map(_ -> 0.0).toMap

    // --- E-step -----------------------------------------------------------
    // Continuous: Gaussian posterior with precision weights 1/(alpha beta phi)
    // plus the N(0, PriorVar) column prior. Categorical: per-label log-score
    // sum of ln q - ln((1-q)/(L-1)) over supporting answers, softmax over the
    // full label set (unvoted labels score 0 relative — see paper Eq. 4).
    def eStep(): (Map[(Int, Int), (Double, Double)], Map[(Int, Int), Array[Double]]) = {
      val la = lnAlpha; val lb = lnBeta; val lp = lnPhi
      val wUdf = udf { (u: Int, i: Int, j: Int) =>
        math.exp(-(la.getOrElse(i, 0.0) + lb.getOrElse(j, 0.0) + lp.getOrElse(u, 0.0)))
      }
      val contPost = gaussianPosterior(ans.filter(!col("isCat"))
        .withColumn("w", wUdf(col("worker"), col("row"), col("col")))
        .groupBy("row", "col")
        .agg(sum("w").as("sw"), sum(expr("w * value")).as("swv"))
        .collect())

      val lc = labelCount
      val lamUdf = udf { (u: Int, i: Int, j: Int) =>
        val s = math.exp(la.getOrElse(i, 0.0) + lb.getOrElse(j, 0.0) + lp.getOrElse(u, 0.0))
        val q = quality(Eps, s)
        val l = lc(j)
        math.log(q) - math.log((1.0 - q) / (l - 1))
      }
      val catPost = labelPosterior(ans.filter(col("isCat"))
        .withColumn("lam", lamUdf(col("worker"), col("row"), col("col")))
        .groupBy("row", "col", "value")
        .agg(sum("lam").as("score"))
        .collect(), labelCount)
      (contPost, catPost)
    }

    var (contPost, catPost) = eStep()

    // --- EM loop ----------------------------------------------------------
    var iter = 0
    var converged = false
    while (iter < cfg.maxIters && !converged) {
      // M-step sufficient statistics are fixed given the posteriors:
      //   continuous: s = (a - T_mu)^2 + T_phi       (paper Eq. 5 term)
      //   categorical: s = posterior prob of the answered label
      val cp = contPost; val kp = catPost
      val statUdf = udf { (i: Int, j: Int, v: Double, isCat: Boolean) =>
        if (isCat) kp((i, j))(v.toInt)
        else {
          val (mu, tphi) = cp((i, j))
          (v - mu) * (v - mu) + tphi
        }
      }
      val statDf = ans
        .withColumn("s", statUdf(col("row"), col("col"), col("value"), col("isCat")))
        .select("worker", "row", "col", "isCat", "s")
        .cache()
      statDf.count()

      var maxDelta = 0.0
      var step = 0
      while (step < cfg.gdSteps) {
        val la = lnAlpha; val lb = lnBeta; val lp = lnPhi
        // d/d lnS of the expected log-likelihood of one answer; identical for
        // ln(phi_u), ln(alpha_i), ln(beta_j) since lnS is their sum.
        val gradUdf = udf { (u: Int, i: Int, j: Int, isCat: Boolean, s: Double) =>
          val lnSv = la.getOrElse(i, 0.0) + lb.getOrElse(j, 0.0) + lp.getOrElse(u, 0.0)
          val sVar = math.exp(lnSv)
          if (isCat) {
            val x  = Eps / math.sqrt(2.0 * sVar)
            val q  = quality(Eps, sVar)
            val dq = -x * math.exp(-x * x) / math.sqrt(math.Pi)
            (s / q - (1.0 - s) / (1.0 - q)) * dq
          } else {
            -0.5 + s / (2.0 * sVar)
          }
        }
        val grads = statDf
          .withColumn("g", gradUdf(col("worker"), col("row"), col("col"), col("isCat"), col("s")))
          .select(explode(array(
            struct(lit("w").as("dim"), col("worker").as("key"), col("g")),
            struct(lit("r").as("dim"), col("row").as("key"), col("g")),
            struct(lit("c").as("dim"), col("col").as("key"), col("g")),
          )).as("x"))
          .select(col("x.dim"), col("x.key"), col("x.g"))
          .groupBy("dim", "key")
          .agg(sum("g").as("sg"), count(lit(1)).as("n"))
          .collect()
          .map(r => (r.getString(0), r.getInt(1)) -> (r.getDouble(2) / r.getLong(3)))
          .toMap

        def upd(m: Map[Int, Double], dim: String, lo: Double, hi: Double): Map[Int, Double] =
          m.map { case (k, v) =>
            val g = grads.getOrElse((dim, k), 0.0)
            val nv = math.min(hi, math.max(lo, v + Lr * g))
            maxDelta = math.max(maxDelta, math.abs(nv - v))
            k -> nv
          }
        lnPhi   = upd(lnPhi, "w", -8.0, 3.0)
        lnAlpha = upd(lnAlpha, "r", -2.5, 2.5)
        lnBeta  = upd(lnBeta, "c", -2.5, 2.5)
        step += 1
      }
      statDf.unpersist()

      // Identifiability: alpha*beta*phi is scale-degenerate; re-center row and
      // column difficulties to geometric mean 1 and fold the shift into phi
      // (leaves every alpha_i*beta_j*phi_u product unchanged).
      if (lnAlpha.nonEmpty && lnBeta.nonEmpty) {
        val ma = lnAlpha.values.sum / lnAlpha.size
        val mb = lnBeta.values.sum / lnBeta.size
        lnAlpha = lnAlpha.map { case (k, v) => k -> (v - ma) }
        lnBeta  = lnBeta.map { case (k, v) => k -> (v - mb) }
        lnPhi   = lnPhi.map { case (k, v) => k -> math.min(3.0, math.max(-8.0, v + ma + mb)) }
      }

      val (ncp, nkp) = eStep()
      contPost = ncp; catPost = nkp
      iter += 1
      converged = maxDelta < Tol
    }
    ans.unpersist()

    // --- point estimates (denormalized) -----------------------------------
    val est =
      contPost.map { case ((i, j), (mu, _)) => TruthCell(i, j, Model.denormalize(stats, j, mu)) }.toSeq ++
      catPost.map { case ((i, j), probs) => TruthCell(i, j, argmax(probs).toDouble) }.toSeq

    ResultMaps(est, contPost, catPost,
      lnPhi.map { case (k, v) => k -> math.exp(v) },
      lnAlpha.map { case (k, v) => k -> math.exp(v) },
      lnBeta.map { case (k, v) => k -> math.exp(v) },
      stats, iter, converged)
  }

  /** The answer relation with continuous values z-normalized by the stats
    * of its answer table ([[AnswerTable.stats]]) and an `isCat` flag, and the stats.
    */
  private def normalized(ds: CrowdDataset): (DataFrame, Map[Int, (Double, Double)]) = {
    val stats  = ds.table.stats
    val catSet = ds.labelCount.filter(_._2 > 0).keySet
    val normUdf = udf((c: Int, v: Double) => Model.normalize(stats, c, v))
    val df = ds.answers.select(
      col("worker"), col("row"), col("col"),
      normUdf(col("col"), col("value")).as("value"),
      col("col").isin(catSet.toSeq: _*).as("isCat"))
    (df, stats)
  }

  /** [[Model.gaussian]] of each cell from collected `(row, col, sum w, sum w*value)` rows. */
  private def gaussianPosterior(rows: Array[Row]): Map[(Int, Int), (Double, Double)] =
    rows.map(r => (r.getInt(0), r.getInt(1)) -> Model.gaussian(r.getDouble(2), r.getDouble(3))).toMap

  /** The label distribution of each cell: a softmax over the column's full
    * label set of collected `(row, col, label, score)` rows; a label nobody
    * answered scores 0.
    */
  private def labelPosterior(rows: Array[Row], labelCount: Map[Int, Int]): Map[(Int, Int), Array[Double]] =
    rows.groupBy(r => (r.getInt(0), r.getInt(1))).map { case (cell @ (i, j), rs) =>
      val l = labelCount(j)
      val score = new Array[Double](l)
      rs.foreach(r => score(Model.label(i, j, r.getDouble(2), l)) = r.getDouble(3))
      cell -> softmax(score)
    }
}
