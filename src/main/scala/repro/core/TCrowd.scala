package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.MathUtil._

/** Configuration of the T-Crowd EM truth-inference algorithm (paper §4).
  * The remaining model constants are in [[TCrowd]] and [[Model.PriorVar]].
  *
  * @param maxIters  cap on EM iterations (paper observes w < 20)
  * @param gdSteps   gradient-ascent steps per M-step (paper observes v < 20;
  *                  a handful suffice because the E-step re-centers targets)
  */
final case class TCrowdConfig(
    maxIters: Int = 15,
    gdSteps: Int = 5,
)

/** Output of T-Crowd inference.
  *
  * Posteriors are kept as driver-side snapshots (the paper's tables are a
  * few thousand cells) because the assignment module (paper §5) needs
  * constant-time per-cell lookups when scoring candidate tasks; `estimates`
  * re-exposes the point estimates as a DataFrame for the metric aggregations.
  *
  * @param contPosterior (row,col) -> (mu, var) of the truth posterior in
  *                      normalized space
  * @param catPosterior  (row,col) -> label distribution (index = label)
  * @param phi           worker variance (normalized space)
  * @param alpha         row difficulty, geometric mean 1
  * @param beta          column difficulty, geometric mean 1
  * @param contStats     per-column (mean, std) used for normalization
  */
final case class TCrowdResult(
    estimatesLocal: Seq[TruthCell],
    contPosterior: Map[(Int, Int), (Double, Double)],
    catPosterior: Map[(Int, Int), Array[Double]],
    phi: Map[Int, Double],
    alpha: Map[Int, Double],
    beta: Map[Int, Double],
    contStats: Map[Int, (Double, Double)],
    iterations: Int,
    converged: Boolean,
) {
  /** Unified worker quality `q_u = erf(eps/sqrt(2 phi_u))` (paper Eq. 2). */
  def workerQuality: Map[Int, Double] = phi.map { case (u, p) => u -> quality(TCrowd.Eps, p) }

  /** Per-cell quality `q_ij^u = erf(eps/sqrt(2 alpha_i beta_j phi_u))`. */
  def cellQuality(u: Int, row: Int, colIdx: Int): Double =
    quality(TCrowd.Eps, cellVariance(u, row, colIdx))

  /** Answer variance `alpha_i * beta_j * phi_u` of worker u on a cell. */
  def cellVariance(u: Int, row: Int, colIdx: Int): Double =
    alpha.getOrElse(row, 1.0) * beta.getOrElse(colIdx, 1.0) * phi.getOrElse(u, 1.0)

  /** Point estimates as a DataFrame `(row, col, est)` for metric joins. */
  def estimates(spark: SparkSession): DataFrame =
    Model.truthDf(spark, estimatesLocal).withColumnRenamed("value", "est")
}

/** T-Crowd truth inference (paper §4): EM over a unified worker model.
  *
  * Layout (DESIGN.md §6): Spark computes the continuous column stats
  * ([[Model.continuousStats]]) and collects the answer relation once; the
  * whole EM then runs on the driver as loops over primitive arrays (see
  * [[Em]]), with no Spark job per iteration. The paper's tables are a few
  * thousand answers, and 128K answers take about 4 MB of arrays.
  */
object TCrowd {

  /** Half-width of the "close enough" band that maps a variance to a quality
    * `q_u = erf(Eps/sqrt(2 phi))`, in z-normalized answer space (DESIGN.md §6).
    */
  val Eps = 1.0
  /** Gradient-ascent learning rate on the log-parameters. */
  val Lr = 0.4
  /** EM stops once no log-parameter moved by more than this in an iteration. */
  val Tol = 5e-3

  def infer(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult = {
    val stats = Model.continuousStats(ds)
    new Em(ds.columns, stats, Model.sortedAnswers(ds.answers.collect())).run(cfg)
  }

  /** TC-onlyCate of Table 7: T-Crowd restricted to categorical columns. */
  def inferOnlyCategorical(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.restrictTo(ds.categoricalCols, "onlyCate"), cfg)

  /** TC-onlyCont of Table 7: T-Crowd restricted to continuous columns. */
  def inferOnlyContinuous(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.restrictTo(ds.continuousCols, "onlyCont"), cfg)
}

/** The T-Crowd EM over one collected answer set. Workers, rows, columns and
  * cells are dense ints; answer `k` is (`worker(k)`, `row(k)`, `col(k)`,
  * `cell(k)`, `value(k)`), and every EM step is a loop over these arrays.
  *
  * @param columns the schema; `beta` covers every schema column
  * @param stats   continuous column stats of [[Model.continuousStats]]
  * @param answers raw answers in [[Model.sortedAnswers]] order
  */
private final class Em(columns: Seq[ColumnSpec], stats: Map[Int, (Double, Double)], answers: Array[Answer]) {
  import TCrowd.{Eps, Lr, Tol}

  private val labelsOf = columns.map(c => c.col -> c.numLabels).toMap // 0 for a continuous column
  for (a <- answers if !labelsOf.contains(a.col))
    throw new IllegalArgumentException(s"answer on cell (${a.row}, ${a.col}): column ${a.col} is not in the schema")

  private val n = answers.length
  private val workerIds = answers.map(_.worker).distinct.sorted
  private val rowIds    = answers.map(_.row).distinct.sorted
  private val colIds    = columns.map(_.col).toArray
  private val cellIds   = answers.map(a => (a.row, a.col)).distinct
  private val cellLabels = cellIds.map(c => labelsOf(c._2))

  private def encode[K](ids: Array[K], key: Answer => K): Array[Int] = {
    val idx = ids.zipWithIndex.toMap
    answers.map(a => idx(key(a)))
  }
  private val worker = encode(workerIds, _.worker)
  private val row    = encode(rowIds, _.row)
  private val col    = encode(colIds, _.col)
  private val cell   = encode(cellIds, a => (a.row, a.col))
  /** Label count of answer k's column; 0 if continuous. */
  private def labels(k: Int): Int = cellLabels(cell(k))
  /** z-normalized value of a continuous answer, label index of a categorical one. */
  private val value = answers.map { a =>
    val l = labelsOf(a.col)
    if (l > 0) Model.label(a.row, a.col, a.value, l).toDouble else Model.normalize(stats, a.col, a.value)
  }

  private def answersPer(key: Array[Int], size: Int): Array[Int] = {
    val m = new Array[Int](size)
    key.foreach(m(_) += 1)
    m
  }
  private val workerAnswers = answersPer(worker, workerIds.length)
  private val rowAnswers    = answersPer(row, rowIds.length)
  private val colAnswers    = answersPer(col, colIds.length)

  private val lnPhi   = new Array[Double](workerIds.length)
  private val lnAlpha = new Array[Double](rowIds.length)
  private val lnBeta  = new Array[Double](colIds.length)

  /** ln of answer k's variance `alpha_i * beta_j * phi_u`. */
  private def lnS(k: Int): Double = lnAlpha(row(k)) + lnBeta(col(k)) + lnPhi(worker(k))

  // Posteriors: (mu, var) of each continuous cell, the label distribution of
  // each categorical cell.
  private val mu   = new Array[Double](cellIds.length)
  private val tphi = new Array[Double](cellIds.length)
  private val post = new Array[Array[Double]](cellIds.length)

  /** E-step. Continuous: Gaussian posterior with precision weights
    * 1/(alpha beta phi) plus the N(0, PriorVar) column prior. Categorical:
    * per-label log-score sum of ln q - ln((1-q)/(L-1)) over supporting
    * answers, softmax over the full label set (unvoted labels score 0
    * relative — see paper Eq. 4).
    */
  private def eStep(): Unit = {
    val sw, swv = new Array[Double](cellIds.length)
    val score = cellLabels.map(l => new Array[Double](l))
    for (k <- 0 until n) {
      val c = cell(k)
      if (labels(k) > 0) {
        val q = quality(Eps, math.exp(lnS(k)))
        score(c)(value(k).toInt) += math.log(q) - math.log((1.0 - q) / (labels(k) - 1))
      } else {
        val w = math.exp(-lnS(k))
        sw(c) += w
        swv(c) += w * value(k)
      }
    }
    for (c <- cellIds.indices) {
      if (cellLabels(c) > 0) post(c) = softmax(score(c).toSeq).toArray
      else { val (m, v) = Model.gaussian(sw(c), swv(c)); mu(c) = m; tphi(c) = v }
    }
  }

  /** M-step sufficient statistic of each answer, fixed given the posteriors:
    * continuous `(a - T_mu)^2 + T_phi` (paper Eq. 5 term), categorical the
    * posterior probability of the answered label.
    */
  private def sufficientStats(): Array[Double] =
    Array.tabulate(n) { k =>
      val c = cell(k)
      if (labels(k) > 0) post(c)(value(k).toInt)
      else { val d = value(k) - mu(c); d * d + tphi(c) }
    }

  /** One gradient-ascent step on every log-parameter; returns the largest
    * change. Each key moves by `Lr` times the mean over its answers of
    * d/d lnS of the answer's expected log-likelihood (identical for ln phi_u,
    * ln alpha_i and ln beta_j, since lnS is their sum); a column without
    * answers has gradient 0.
    */
  private def gradientStep(s: Array[Double]): Double = {
    val gPhi   = new Array[Double](lnPhi.length)
    val gAlpha = new Array[Double](lnAlpha.length)
    val gBeta  = new Array[Double](lnBeta.length)
    for (k <- 0 until n) {
      val sVar = math.exp(lnS(k))
      val g =
        if (labels(k) > 0) {
          val x  = Eps / math.sqrt(2.0 * sVar)
          val q  = quality(Eps, sVar)
          val dq = -x * math.exp(-x * x) / math.sqrt(math.Pi)
          (s(k) / q - (1.0 - s(k)) / (1.0 - q)) * dq
        } else -0.5 + s(k) / (2.0 * sVar)
      gPhi(worker(k)) += g; gAlpha(row(k)) += g; gBeta(col(k)) += g
    }
    def upd(ln: Array[Double], g: Array[Double], cnt: Array[Int], lo: Double, hi: Double): Double =
      ln.indices.foldLeft(0.0) { (maxDelta, i) =>
        val mean = if (cnt(i) == 0) 0.0 else g(i) / cnt(i)
        val nv = math.min(hi, math.max(lo, ln(i) + Lr * mean))
        val delta = math.abs(nv - ln(i))
        ln(i) = nv
        math.max(maxDelta, delta)
      }
    math.max(upd(lnPhi, gPhi, workerAnswers, -8.0, 3.0),
      math.max(upd(lnAlpha, gAlpha, rowAnswers, -2.5, 2.5), upd(lnBeta, gBeta, colAnswers, -2.5, 2.5)))
  }

  /** Identifiability: alpha*beta*phi is scale-degenerate; re-center row and
    * column difficulties to geometric mean 1 and fold the shift into phi
    * (leaves every alpha_i*beta_j*phi_u product unchanged).
    */
  private def renormalize(): Unit =
    if (lnAlpha.nonEmpty && lnBeta.nonEmpty) {
      val ma = lnAlpha.sum / lnAlpha.length
      val mb = lnBeta.sum / lnBeta.length
      lnAlpha.mapInPlace(_ - ma)
      lnBeta.mapInPlace(_ - mb)
      lnPhi.mapInPlace(v => math.min(3.0, math.max(-8.0, v + ma + mb)))
    }

  def run(cfg: TCrowdConfig): TCrowdResult = {
    eStep()
    var iter = 0
    var converged = false
    while (iter < cfg.maxIters && !converged) {
      val s = sufficientStats()
      var maxDelta = 0.0
      for (_ <- 0 until cfg.gdSteps) maxDelta = math.max(maxDelta, gradientStep(s))
      renormalize()
      eStep()
      iter += 1
      converged = maxDelta < Tol
    }

    val contPost = cellIds.indices.filter(cellLabels(_) == 0).map(c => cellIds(c) -> (mu(c), tphi(c))).toMap
    val catPost  = cellIds.indices.filter(cellLabels(_) > 0).map(c => cellIds(c) -> post(c)).toMap
    val est =
      Model.denormalize(contPost.map { case ((i, j), (m, _)) => TruthCell(i, j, m) }.toSeq, stats) ++
      catPost.map { case ((i, j), probs) => TruthCell(i, j, argmax(probs).toDouble) }.toSeq
    def params(ids: Array[Int], ln: Array[Double]): Map[Int, Double] =
      ids.indices.map(i => ids(i) -> math.exp(ln(i))).toMap

    TCrowdResult(est, contPost, catPost,
      params(workerIds, lnPhi), params(rowIds, lnAlpha), params(colIds, lnBeta),
      stats, iter, converged)
  }
}
