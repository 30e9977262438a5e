package repro.core

import repro.core.MathUtil.{quality, softmax}
import repro.core.TCrowd.{Eps, Lr, Tol}

/** T-Crowd's EM transcribed from paper §4 over maps keyed by worker, row,
  * column and cell ids: the reference the driver-side kernel
  * ([[TCrowd.infer]]) must match. It shares with the kernel only the table's
  * ingest (raw answers, continuous stats), `Model.normalize`, `quality`,
  * `softmax` and the model constants.
  */
final class TCrowdOracle(t: AnswerTable) {
  import TCrowdOracle._

  private val numLabels = labelCounts(t.columns)
  private val answers = normalized(t.stats, t.answers.toSeq)

  /** Every parameter at ln 1: a worker and a row per answer, every schema column. */
  val start: Params = Params(answers.map(_.worker -> 0.0).toMap, answers.map(_.row -> 0.0).toMap,
    numLabels.map { case (j, _) => j -> 0.0 })

  /** [[TCrowdOracle.eStep]] of the table's answers. */
  def eStep(p: Params): Posteriors = TCrowdOracle.eStep(t.columns, answers, p)

  /** Answer a's term of Eq. 5 (its expected log-likelihood under `post`)
    * and the term's derivative in ln s. Continuous, `e = (a - mu)^2 + var`:
    * `-ln(2 pi s)/2 - e/(2 s)` and `-1/2 + e/(2 s)`. Categorical, `r` the
    * answered label's posterior: `r ln q + (1 - r) ln((1 - q)/(L - 1))` and
    * `(r/q - (1 - r)/(1 - q)) dq/d ln s`, `dq/d ln s = -x exp(-x^2)/sqrt(pi)` at `x = Eps / sqrt(2 s)`.
    */
  private def term(a: Answer, p: Params, post: Posteriors): (Double, Double) = {
    val s = math.exp(p.lnS(a))
    val l = numLabels(a.col)
    if (l > 0) {
      val (r, q, x) = (post.cat(cellOf(a))(a.value.toInt), quality(Eps, s), Eps / math.sqrt(2 * s))
      (r * math.log(q) + (1 - r) * math.log((1 - q) / (l - 1)),
        (r / q - (1 - r) / (1 - q)) * (-x * math.exp(-x * x) / math.sqrt(math.Pi)))
    } else {
      val (mu, v) = post.cont(cellOf(a))
      val e = (a.value - mu) * (a.value - mu) + v
      (-0.5 * math.log(2 * math.Pi * s) - e / (2 * s), -0.5 + e / (2 * s))
    }
  }

  /** Q of Eq. 5 up to the terms free of the parameters. */
  def q(p: Params, post: Posteriors): Double = answers.map(term(_, p, post)._1).sum

  /** dQ/d ln theta per id of `key` (worker, row or column) with answers:
    * as ln s = ln phi + ln alpha + ln beta, the sum of its answers' term derivatives.
    */
  def gradient(p: Params, post: Posteriors, key: Answer => Int): Map[Int, Double] =
    answers.groupMapReduce(key)(term(_, p, post)._2)(_ + _)

  /** M-step (DESIGN.md §6): `gdSteps` steps, each moving every
    * log-parameter by `Lr` times its [[gradient]] over its number of answers,
    * clamped; then ln alpha, ln beta re-centered on 0, the shift folded into
    * ln phi. Returns the parameters and the largest change of a step.
    */
  def mStep(p0: Params, post: Posteriors, gdSteps: Int): (Params, Double) = {
    var (p, maxDelta) = (p0, 0.0)
    def step(ln: Map[Int, Double], key: Answer => Int, lo: Double, hi: Double): Map[Int, Double] = {
      val (g, n) = (gradient(p, post, key), answers.groupMapReduce(key)(_ => 1)(_ + _))
      ln.map { case (k, v) =>
        val nv = clamp(v + Lr * g.get(k).fold(0.0)(_ / n(k)), lo, hi)
        maxDelta = math.max(maxDelta, math.abs(nv - v))
        k -> nv
      }
    }
    for (_ <- 0 until gdSteps)
      p = Params(step(p.lnPhi, _.worker, -8, 3), step(p.lnAlpha, _.row, -2.5, 2.5), step(p.lnBeta, _.col, -2.5, 2.5))
    if (p.lnAlpha.nonEmpty && p.lnBeta.nonEmpty) {
      val (ma, mb) = (p.lnAlpha.values.sum / p.lnAlpha.size, p.lnBeta.values.sum / p.lnBeta.size)
      p = Params(p.lnPhi.map { case (u, v) => u -> clamp(v + ma + mb, -8, 3) },
        p.lnAlpha.map { case (i, v) => i -> (v - ma) }, p.lnBeta.map { case (j, v) => j -> (v - mb) })
    }
    (p, maxDelta)
  }

  /** The EM from [[start]] until `maxIters`, or until no step of an M-step
    * moved a log-parameter by `Tol`: the run, and Q before and after each
    * M-step under the posteriors it climbed.
    */
  def run(cfg: TCrowdConfig): (Run, Seq[(Double, Double)]) = {
    var (p, post, iter, converged) = (start, eStep(start), 0, false)
    val qs = Seq.newBuilder[(Double, Double)]
    while (iter < cfg.maxIters && !converged) {
      val (next, maxDelta) = mStep(p, post, cfg.gdSteps)
      qs += ((q(p, post), q(next, post)))
      p = next; post = eStep(p); iter += 1; converged = maxDelta < Tol
    }
    (Run(post, p, iter, converged), qs.result())
  }
}

object TCrowdOracle {

  /** ln phi per worker id, ln alpha per row id, ln beta per column id. */
  final case class Params(lnPhi: Map[Int, Double], lnAlpha: Map[Int, Double], lnBeta: Map[Int, Double]) {
    /** ln of answer a's variance `s = alpha_i beta_j phi_u`. */
    def lnS(a: Answer): Double = lnAlpha(a.row) + lnBeta(a.col) + lnPhi(a.worker)
  }

  /** (mu, var) of each continuous cell and the label distribution of each categorical cell. */
  final case class Posteriors(cont: Map[(Int, Int), (Double, Double)], cat: Map[(Int, Int), Array[Double]])

  /** An EM run's last posteriors and parameters, and how it stopped. */
  final case class Run(post: Posteriors, p: Params, iterations: Int, converged: Boolean)

  /** E-step. Eq. 3: a continuous cell's truth under the N(0, PriorVar)
    * prior and answers `a ~ N(T, s)` has precision `1/PriorVar + sum 1/s`
    * and mean `sum(a/s)` over that precision. Eq. 4: label z of a cell with
    * L labels scores the sum, over the answers z, of `ln q - ln((1-q)/(L-1))`
    * with `q = erf(Eps / sqrt(2 s))`; the posterior is their softmax. The
    * answers are on the schema `columns`, a continuous value z-normalized
    * ([[normalized]]); a cell without answers has no entry.
    */
  def eStep(columns: Seq[ColumnSpec], answers: Seq[Answer], p: Params): Posteriors = {
    val numLabels = labelCounts(columns)
    val (cat, cont) = answers.partition(a => numLabels(a.col) > 0)
    Posteriors(cont.groupBy(cellOf).map { case (c, as) =>
      val precision = 1.0 / Model.PriorVar + as.map(a => math.exp(-p.lnS(a))).sum
      c -> (as.map(a => a.value * math.exp(-p.lnS(a))).sum / precision, 1.0 / precision)
    }, cat.groupBy(cellOf).map { case (c, as) =>
      val l = numLabels(c._2)
      val score = new Array[Double](l)
      for (a <- as; q = quality(Eps, math.exp(p.lnS(a)))) score(a.value.toInt) += math.log(q) - math.log((1 - q) / (l - 1))
      c -> softmax(score)
    })
  }

  /** The answers, a continuous value z-normalized by its column's `stats`. */
  def normalized(stats: Map[Int, (Double, Double)], answers: Seq[Answer]): Seq[Answer] =
    answers.map(a => a.copy(value = Model.normalize(stats, a.col, a.value)))

  private def labelCounts(columns: Seq[ColumnSpec]): Map[Int, Int] = columns.map(c => c.col -> c.numLabels).toMap
  private def cellOf(a: Answer): (Int, Int) = (a.row, a.col)

  private def clamp(v: Double, lo: Double, hi: Double): Double = math.min(hi, math.max(lo, v))
}
