package repro.core

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

/** Output of T-Crowd inference: arrays over the dense cells, workers, rows
  * and columns of the answer table it was inferred from. The assignment
  * module (paper §5) copies it into the arrays of its [[Snapshot]] at each
  * refresh, and the §5.2 correlation estimate reads it per answer.
  *
  * @param table the answers the result was inferred from; its continuous
  *              stats ([[AnswerTable.stats]]) define the normalized space
  * @param mu    per cell of `table`, the truth posterior mean in normalized
  *              space (a categorical cell has the prior's 0)
  * @param tphi  per cell, the truth posterior variance (a categorical cell
  *              has [[Model.PriorVar]])
  * @param post  per cell, the label distribution, index = label (empty for
  *              a continuous cell)
  * @param phi   per worker of `table.workerIds`, the variance (normalized space)
  * @param alpha per row of `table.rowIds`, the difficulty, geometric mean 1
  * @param beta  per column position of `table.columns`, the difficulty,
  *              geometric mean 1
  */
final class TCrowdResult(val table: AnswerTable, val mu: Array[Double], val tphi: Array[Double],
    val post: Array[Array[Double]], val phi: Array[Double], val alpha: Array[Double],
    val beta: Array[Double], val iterations: Int, val converged: Boolean) {
  require(Seq(mu.length, tphi.length, post.length).forall(_ == table.cellIds.length) &&
    phi.length == table.workerIds.length && alpha.length == table.rowIds.length &&
    beta.length == table.colIds.length, "a result has one value per cell, worker, row and column of its table")

  /** The estimate of every cell of `table`, continuous cells first: the
    * posterior mean mapped back to raw scale, or the argmax label.
    */
  lazy val estimatesLocal: Seq[TruthCell] =
    (table.contCells.map(c => table.estimate(c, mu(c))) ++
      table.catCells.map(c => table.estimate(c, argmax(post(c)).toDouble))).toSeq
}

/** T-Crowd truth inference (paper §4): EM over a unified worker model.
  *
  * Layout (DESIGN.md §6): the EM reads the collected answer relation
  * ([[AnswerTable]]) and runs on the driver as loops
  * over the table's primitive arrays (see [[Em]]), with no Spark job per
  * iteration. The paper's tables are a few thousand answers, and 128K
  * answers take about 4 MB of arrays.
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

  /** T-Crowd on [[CrowdDataset.table]]: one Spark job on the dataset's first read, none after. */
  def infer(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.table, cfg)

  /** TC-onlyCate of Table 7: T-Crowd restricted to categorical columns. */
  def inferOnlyCategorical(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.table.restrictTo(_.isCategorical), cfg)

  /** TC-onlyCont of Table 7: T-Crowd restricted to continuous columns. */
  def inferOnlyContinuous(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.table.restrictTo(_.isContinuous), cfg)

  /** T-Crowd on an already collected answer table; runs no Spark job. */
  def infer(t: AnswerTable, cfg: TCrowdConfig): TCrowdResult = new Em(t).run(cfg)
}

/** The T-Crowd EM over one [[AnswerTable]]; every EM step is a loop over
  * its arrays. `beta` covers every schema column of the table, `alpha` and
  * `phi` the rows and workers with answers.
  */
private final class Em(t: AnswerTable) {
  import TCrowd.{Eps, Lr, Tol}
  import t.{cell, value, labels, worker, row, col}

  private val all     = Array.range(0, t.size)
  private val lnPhi   = new Array[Double](t.workerIds.length)
  private val lnAlpha = new Array[Double](t.rowIds.length)
  private val lnBeta  = new Array[Double](t.colIds.length)

  /** ln of answer k's variance `alpha_i * beta_j * phi_u`. */
  private def lnS(k: Int): Double = lnAlpha(row(k)) + lnBeta(col(k)) + lnPhi(worker(k))

  // Posteriors: (mu, var) of each continuous cell, the label distribution of
  // each categorical cell.
  private var mu, tphi: Array[Double] = _
  private var post: Array[Array[Double]] = _

  /** E-step. Continuous: Gaussian posterior with precision weights
    * 1/(alpha beta phi) plus the N(0, PriorVar) column prior. Categorical:
    * label posterior with the per-answer quality q = erf(Eps/sqrt(2 alpha
    * beta phi)).
    */
  private def eStep(): Unit = {
    post = t.labelPosteriors(k => quality(Eps, math.exp(lnS(k))))
    val (m, v) = t.gaussianPosteriors(k => math.exp(-lnS(k)))
    mu = m; tphi = v
  }

  /** M-step sufficient statistic of each answer, fixed given the posteriors:
    * continuous `(a - T_mu)^2 + T_phi` (paper Eq. 5 term), categorical the
    * posterior probability of the answered label.
    */
  private def sufficientStats(): Array[Double] =
    t.perAnswer { k =>
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
    val g = t.perAnswer { k =>
      val sVar = math.exp(lnS(k))
      if (labels(k) > 0) {
        val x  = Eps / math.sqrt(2.0 * sVar)
        val q  = quality(Eps, sVar)
        val dq = -x * math.exp(-x * x) / math.sqrt(math.Pi)
        (s(k) / q - (1.0 - s(k)) / (1.0 - q)) * dq
      } else -0.5 + s(k) / (2.0 * sVar)
    }
    def upd(ln: Array[Double], key: Array[Int], lo: Double, hi: Double): Double = {
      val mean = t.meanPer(all, key, ln.length)(g(_))
      var maxDelta = 0.0
      var i = 0
      while (i < ln.length) {
        val nv = math.min(hi, math.max(lo, ln(i) + Lr * mean(i)))
        val delta = math.abs(nv - ln(i))
        ln(i) = nv
        maxDelta = math.max(maxDelta, delta)
        i += 1
      }
      maxDelta
    }
    math.max(upd(lnPhi, worker, -8.0, 3.0),
      math.max(upd(lnAlpha, row, -2.5, 2.5), upd(lnBeta, col, -2.5, 2.5)))
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

    new TCrowdResult(t, mu, tphi, post, lnPhi.map(math.exp), lnAlpha.map(math.exp), lnBeta.map(math.exp),
      iter, converged)
  }
}
