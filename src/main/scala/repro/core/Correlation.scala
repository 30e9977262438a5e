package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.MathUtil._

/** Parameters of a conditional error distribution `P(e_j | e_k = cond)`
  * estimated from paired samples: `mean`/`variance` of `e_j` (for a
  * categorical target, `mean` is `P(e_j = 1 | e_k = cond)` and the variance
  * is unused).
  */
final case class CondDist(mean: Double, variance: Double, n: Long)

/** The structure-aware error-correlation model of paper §5.2 (Tables 4/5):
  * per-attribute error marginals, per-pair Pearson weights `W_jk` (Eq. 8),
  * and the four conditional-distribution cases. Errors are measured against
  * the current truth estimates in z-normalized space (categorical: 0/1).
  *
  * @param isCat        datatype of each attribute
  * @param marginal     marginal error distribution per attribute
  *                     (categorical: mean = error rate; continuous: mean/var)
  * @param weight       `W_jk` Pearson correlation of paired errors
  * @param condOnCat    (j, k, e_k∈{0,1}) -> distribution of e_j given a
  *                     *categorical* conditioning attribute k
  * @param contPair     (j, k) -> bivariate moments (muJ, muK, varJ, varK,
  *                     cov) for continuous j conditioned on continuous k
  */
final case class CorrelationModel(
    isCat: Map[Int, Boolean],
    marginal: Map[Int, CondDist],
    weight: Map[(Int, Int), Double],
    condOnCat: Map[(Int, Int, Int), CondDist],
    contPair: Map[(Int, Int), (Double, Double, Double, Double, Double)],
) {

  private def w(j: Int, k: Int): Double =
    math.max(math.abs(weight.getOrElse((j, k), 0.0)), 1e-3)

  /** `P(e_j | e_k = ek)` for one observed error (paper Table 5). Returns the
    * conditional distribution of e_j (categorical target: mean = error
    * probability), or None when the pair was never observed together.
    */
  def conditional(j: Int, k: Int, ek: Double): Option[CondDist] = {
    val jCat = isCat.getOrElse(j, false)
    val kCat = isCat.getOrElse(k, false)
    if (kCat) {
      // cases (a) cat|cat and (c) cont|cat: directly estimated
      condOnCat.get((j, k, if (ek > 0.5) 1 else 0))
    } else if (!jCat) {
      // case (b) cont|cont: conditional of a bivariate normal
      contPair.get((j, k)).map { case (muJ, muK, varJ, varK, cov) =>
        val vk  = math.max(varK, 1e-9)
        val rho = cov / math.sqrt(math.max(varJ, 1e-9) * vk)
        val r   = math.max(-0.999, math.min(0.999, rho))
        CondDist(muJ + cov / vk * (ek - muK), (1 - r * r) * math.max(varJ, 1e-9), 1)
      }
    } else {
      // case (d) cat j | cont k: Bayes over P(e_k | e_j) normals + P(e_j)
      for {
        d1 <- condOnCat.get((k, j, 1)) // e_k | e_j = 1
        d0 <- condOnCat.get((k, j, 0)) // e_k | e_j = 0
        m  <- marginal.get(j)
      } yield {
        val p1 = clampProb(m.mean)
        val l1 = normalPdf(ek, d1.mean, math.max(d1.variance, 1e-6)) * p1
        val l0 = normalPdf(ek, d0.mean, math.max(d0.variance, 1e-6)) * (1 - p1)
        val pe = if (l1 + l0 <= 0) p1 else l1 / (l1 + l0)
        CondDist(clampProb(pe), pe * (1 - pe), d1.n + d0.n)
      }
    }
  }

  /** Paper Eq. 7: `P(e_j | E_i^u)` as the `W_jk`-weighted combination of the
    * single-attribute conditionals over the worker's observed errors on the
    * row. For a continuous target the mixture's mean and full variance
    * (within + between) are returned; for a categorical target the mean is
    * the error probability. None if no observed attribute co-occurred with j.
    */
  def predict(j: Int, observed: Seq[(Int, Double)]): Option[CondDist] = {
    val parts = observed.flatMap { case (k, ek) =>
      if (k == j) None else conditional(j, k, ek).map(d => (w(j, k), d))
    }
    if (parts.isEmpty) None
    else {
      val sw = parts.map(_._1).sum
      val mean = parts.map { case (wk, d) => wk * d.mean }.sum / sw
      val second = parts.map { case (wk, d) => wk * (d.variance + d.mean * d.mean) }.sum / sw
      Some(CondDist(mean, math.max(second - mean * mean, 1e-9), parts.map(_._2.n).sum))
    }
  }
}

object Correlation {

  /** Estimate the correlation model from the collected answers and the
    * current truth estimates. Two aggregations over the self-joined
    * per-answer error relation: bivariate moments per ordered attribute pair
    * (for `W_jk` and the cont|cont case) and conditional moments per pair
    * with a categorical conditioner.
    *
    * @param res used for the truth estimates and normalization stats
    */
  def estimate(ds: CrowdDataset, res: TCrowdResult): CorrelationModel = {
    val isCat = ds.columns.map(c => c.col -> c.isCategorical).toMap
    val errDf = errors(ds, res).cache()
    errDf.count()

    val marginal = errDf.groupBy("col")
      .agg(avg("e").as("m"), coalesce(var_pop(col("e")), lit(0.0)).as("v"), count(lit(1)).as("n"))
      .collect()
      .map(r => r.getInt(0) -> CondDist(r.getDouble(1), r.getDouble(2), r.getLong(3)))
      .toMap

    val a = errDf.select(col("worker"), col("row"), col("col").as("jcol"), col("e").as("ej"))
    val b = errDf.select(col("worker"), col("row"), col("col").as("kcol"), col("e").as("ek"))
    val pairs = a.join(b, Seq("worker", "row")).filter(col("jcol") =!= col("kcol")).cache()
    pairs.count()

    val moments = pairs.groupBy("jcol", "kcol").agg(
      count(lit(1)).as("n"),
      avg("ej").as("muj"), avg("ek").as("muk"),
      coalesce(var_pop(col("ej")), lit(0.0)).as("vj"),
      coalesce(var_pop(col("ek")), lit(0.0)).as("vk"),
      coalesce(covar_pop(col("ej"), col("ek")), lit(0.0)).as("cov"),
    ).collect()

    // column order after groupBy(jcol,kcol): n=2, muj=3, muk=4, vj=5, vk=6, cov=7.
    // Pearson W_jk (Eq. 8) is derived from the moments on the driver — the
    // `corr` aggregate would throw under ANSI mode when a group's errors are
    // constant (common in early online rounds); a degenerate pair gets W=0.
    val weight = moments.map { r =>
      val vj = r.getDouble(5); val vk = r.getDouble(6)
      val w = if (vj <= 0 || vk <= 0) 0.0 else r.getDouble(7) / math.sqrt(vj * vk)
      (r.getInt(0), r.getInt(1)) -> w
    }.toMap
    val contPair = moments.map { r =>
      (r.getInt(0), r.getInt(1)) ->
        (r.getDouble(3), r.getDouble(4), r.getDouble(5), r.getDouble(6), r.getDouble(7))
    }.toMap

    val catConds = isCat.filter(_._2).keySet.toSeq
    val condOnCat =
      if (catConds.isEmpty) Map.empty[(Int, Int, Int), CondDist]
      else pairs.filter(col("kcol").isin(catConds: _*))
        .groupBy("jcol", "kcol", "ek")
        .agg(avg("ej").as("m"), coalesce(var_pop(col("ej")), lit(0.0)).as("v"), count(lit(1)).as("n"))
        .collect()
        .map(r => (r.getInt(0), r.getInt(1), r.getDouble(2).toInt) ->
          CondDist(r.getDouble(3), r.getDouble(4), r.getLong(5)))
        .toMap

    pairs.unpersist(); errDf.unpersist()
    CorrelationModel(isCat, marginal, weight, condOnCat, contPair)
  }

  /** Per-answer error vs the current truth estimate: 0/1 for categorical,
    * z-normalized signed difference for continuous (paper §5.2 definitions).
    */
  def errors(ds: CrowdDataset, res: TCrowdResult): DataFrame = {
    val labelCount = ds.labelCount
    val stats = res.contStats
    val contMu = res.contPosterior
    val catArg: Map[(Int, Int), Int] =
      res.catPosterior.map { case (c, p) => c -> argmax(p) }
    val errUdf = udf { (i: Int, j: Int, v: Double) =>
      if (labelCount.getOrElse(j, 0) > 0) {
        catArg.get((i, j)) match {
          case Some(t) => if (t == v.toInt) 0.0 else 1.0
          case None    => 0.0
        }
      } else {
        Model.normalize(stats, j, v) - contMu.get((i, j)).map(_._1).getOrElse(0.0)
      }
    }
    ds.answers.select(col("worker"), col("row"), col("col"),
      errUdf(col("row"), col("col"), col("value")).as("e"))
  }
}
