package repro.core

import repro.core.MathUtil._
import scala.collection.mutable

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

  /** Estimate the correlation model from the answers and the current truth
    * estimates, in one driver-side pass over the [[AnswerTable]]: each
    * answer's error ([[errors]]), the per-attribute marginals, and, over
    * every ordered pair of one worker's answers on one row on different
    * attributes, the bivariate moments per attribute pair (for `W_jk` and the
    * cont|cont case) and the moments conditioned on a categorical attribute.
    *
    * @param res used for the truth estimates and normalization stats
    */
  def estimate(ds: CrowdDataset, res: TCrowdResult): CorrelationModel = {
    val isCat = ds.columns.map(c => c.col -> c.isCategorical).toMap
    val answers = Model.answerTable(ds).answers
    val e = answers.map(errors(ds.labelCount, res))

    val marginal = mutable.Map.empty[Int, Moments]
    val pair = mutable.Map.empty[(Int, Int), Moments]
    val cond = mutable.Map.empty[(Int, Int, Int), Moments]
    answers.indices.foreach(p => marginal.getOrElseUpdate(answers(p).col, new Moments).add(e(p)))
    val contexts = answers.indices.groupBy(p => (answers(p).row, answers(p).worker)).toSeq.sortBy(_._1)
    for ((_, ctx) <- contexts; p <- ctx; q <- ctx) {
      val j = answers(p).col; val k = answers(q).col
      if (j != k) {
        pair.getOrElseUpdate((j, k), new Moments).add(e(p), e(q))
        if (isCat.getOrElse(k, false)) cond.getOrElseUpdate((j, k, e(q).toInt), new Moments).add(e(p))
      }
    }

    // Pearson W_jk (Eq. 8); a pair whose errors are constant gets W = 0.
    val weight = pair.map { case (jk, m) => jk -> m.correlation }.toMap
    val contPair = pair.map { case (jk, m) => jk -> (m.meanX, m.meanY, m.varX, m.varY, m.cov) }.toMap
    def dist(m: Moments) = CondDist(m.meanX, m.varX, m.n)
    CorrelationModel(isCat, marginal.map { case (j, m) => j -> dist(m) }.toMap, weight,
      cond.map { case (c, m) => c -> dist(m) }.toMap, contPair)
  }

  /** The error of one answer vs the current truth estimate: 0/1 for
    * categorical, z-normalized signed difference for continuous (paper §5.2
    * definitions). A cell without an estimate counts as truth 0 (continuous)
    * or as answered correctly (categorical).
    *
    * @throws IllegalArgumentException if a categorical answer is not a
    *         [[Model.label]]
    */
  def errors(labelCount: Map[Int, Int], res: TCrowdResult): Answer => Double = {
    val catArg: Map[(Int, Int), Int] = res.catPosterior.map { case (c, p) => c -> argmax(p) }
    a => labelCount.getOrElse(a.col, 0) match {
      case 0 =>
        Model.normalize(res.contStats, a.col, a.value) -
          res.contPosterior.get((a.row, a.col)).map(_._1).getOrElse(0.0)
      case l =>
        val z = Model.label(a.row, a.col, a.value, l)
        if (catArg.get((a.row, a.col)).forall(_ == z)) 0.0 else 1.0
    }
  }
}
