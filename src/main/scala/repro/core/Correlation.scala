package repro.core

import repro.core.MathUtil._

/** A conditional error distribution `P(e_j | e_k = cond)` of paper Table 5,
  * or the Eq. 7 mixture of several: the `mean` and `variance` of `e_j`. For
  * a categorical target, `mean` is `P(e_j = 1 | e_k = cond)` and `variance`
  * is that Bernoulli's, which [[Assignment.predictedGain]] does not read.
  */
final case class CondDist(mean: Double, variance: Double)

/** The structure-aware error-correlation model of paper §5.2 (Tables 4/5),
  * as the moments [[Correlation.estimate]] accumulates over the columns of
  * its answer table: per-attribute error marginals, per-pair bivariate
  * moments (the Pearson weights `W_jk` of Eq. 8, 0 for a pair whose errors
  * are constant, and the cont|cont case) and moments conditioned on a
  * categorical attribute's error. Errors are measured against the truth
  * estimates in z-normalized space (categorical: 0/1). An entry never
  * observed is null.
  *
  * @param columns  the schema; positions ([[Model.columnPositions]]) index the arrays
  * @param marginal error moments of the column at each position
  * @param pair     moments of (e_j, e_k) at `jx * m + kx`, for the m columns
  * @param cond     moments of e_j given a categorical e_k = e, at `(jx * m + kx) * 2 + e`
  */
final class CorrelationModel private[core] (
    val columns: Seq[ColumnSpec],
    val marginal: Array[Moments],
    val pair: Array[Moments],
    val cond: Array[Moments],
) {
  private val m = columns.size
  private val position = Model.columnPositions(columns)
  private val cat = columns.map(_.isCategorical).toArray

  /** `P(e_j | e_k = ek)` for one observed error (paper Table 5). Returns the
    * conditional distribution of e_j (categorical target: mean = error
    * probability), or None when the pair was never observed together.
    */
  def conditional(j: Int, k: Int, ek: Double): Option[CondDist] = {
    val (jx, kx) = (position(j), position(k))
    if (jx < 0 || kx < 0) None else Option(conditionalAt(jx, kx, ek))
  }

  /** Paper Eq. 7: `P(e_j | E_i^u)` as the `W_jk`-weighted combination of the
    * single-attribute conditionals over the worker's observed errors on the
    * row, `W_jk` floored at 1e-3 in absolute value. For a continuous target
    * the mixture's mean and full variance (within + between) are returned;
    * for a categorical target the mean is the error probability. None if no
    * observed attribute co-occurred with j.
    */
  def predict(j: Int, observed: Seq[(Int, Double)]): Option[CondDist] = {
    val jx = position(j)
    var sw, mean, second = 0.0
    var parts = 0
    val it = observed.iterator
    while (it.hasNext) {
      val (k, ek) = it.next()
      val kx = position(k)
      if (k != j && jx >= 0 && kx >= 0) {
        val d = conditionalAt(jx, kx, ek)
        if (d != null) {
          // a conditional implies the pair was observed together
          val wk = math.max(math.abs(pair(jx * m + kx).correlation), 1e-3)
          sw += wk
          mean += wk * d.mean
          second += wk * (d.variance + d.mean * d.mean)
          parts += 1
        }
      }
    }
    if (parts == 0) None
    else {
      mean /= sw
      second /= sw
      Some(CondDist(mean, math.max(second - mean * mean, 1e-9)))
    }
  }

  /** The distribution of the moments `ms`; null if there are none. */
  private def dist(ms: Moments): CondDist = if (ms == null) null else CondDist(ms.meanX, ms.varX)

  /** [[conditional]] of the columns at positions jx, kx; null for None. */
  private def conditionalAt(jx: Int, kx: Int, ek: Double): CondDist =
    if (cat(kx)) {
      // cases (a) cat|cat and (c) cont|cat: directly estimated
      dist(cond((jx * m + kx) * 2 + (if (ek > 0.5) 1 else 0)))
    } else if (!cat(jx)) {
      // case (b) cont|cont: conditional of a bivariate normal
      val c = pair(jx * m + kx)
      if (c == null) null
      else {
        val vk  = math.max(c.varY, 1e-9)
        val rho = c.cov / math.sqrt(math.max(c.varX, 1e-9) * vk)
        val r   = math.max(-0.999, math.min(0.999, rho))
        CondDist(c.meanX + c.cov / vk * (ek - c.meanY), (1 - r * r) * math.max(c.varX, 1e-9))
      }
    } else {
      // case (d) cat j | cont k: Bayes over P(e_k | e_j) normals + P(e_j)
      val d1 = dist(cond((kx * m + jx) * 2 + 1)) // e_k | e_j = 1
      val d0 = dist(cond((kx * m + jx) * 2))     // e_k | e_j = 0
      val mj = marginal(jx)
      if (d1 == null || d0 == null || mj == null) null
      else {
        val p1 = clampProb(mj.meanX)
        val l1 = normalPdf(ek, d1.mean, math.max(d1.variance, 1e-6)) * p1
        val l0 = normalPdf(ek, d0.mean, math.max(d0.variance, 1e-6)) * (1 - p1)
        val pe = if (l1 + l0 <= 0) p1 else l1 / (l1 + l0)
        CondDist(clampProb(pe), pe * (1 - pe))
      }
    }
}

object Correlation {

  /** Estimate the correlation model from the answers of `res.table` and
    * the result's truth estimates, in one driver-side pass over the table:
    * each answer's error ([[errors]]), the per-attribute marginals, and, over
    * every ordered pair of one worker's answers on one row on different
    * attributes, the bivariate moments per attribute pair (for `W_jk` and the
    * cont|cont case) and the moments conditioned on a categorical attribute.
    *
    * The moments sit in arrays over column positions (m x m pairs,
    * m x m x 2 conditionals). The contexts come from the table's row runs:
    * per row, each worker's answers in ascending index order, the workers
    * ascending, so every moment sees its samples in `(row, worker)` order.
    */
  def estimate(res: TCrowdResult): CorrelationModel = {
    val t = res.table
    val m = t.colIds.length
    val col = t.col
    val e = errors(res)

    val marginal = new Array[Moments](m)
    val pair = new Array[Moments](m * m)
    val cond = new Array[Moments](m * m * 2)
    def at(ms: Array[Moments], i: Int): Moments = {
      if (ms(i) == null) ms(i) = new Moments
      ms(i)
    }
    var p = 0
    while (p < t.size) { at(marginal, col(p)).add(e(p)); p += 1 }

    // One row run at a time: its answers sorted by (worker, index), then
    // every ordered pair within one worker's run.
    val ctx = new Array[Long](t.size)
    var start = 0
    while (start < t.size) {
      var end = start
      while (end < t.size && t.row(end) == t.row(start)) {
        ctx(end - start) = (t.worker(end).toLong << 32) | end
        end += 1
      }
      val n = end - start
      java.util.Arrays.sort(ctx, 0, n)
      var a = 0
      while (a < n) {
        var b = a
        while (b < n && (ctx(b) >>> 32) == (ctx(a) >>> 32)) b += 1
        var x = a
        while (x < b) {
          val ax = ctx(x).toInt
          val j = col(ax)
          var y = a
          while (y < b) {
            val ay = ctx(y).toInt
            val k = col(ay)
            if (j != k) {
              at(pair, j * m + k).add(e(ax), e(ay))
              if (t.colLabels(k) > 0) at(cond, (j * m + k) * 2 + e(ay).toInt).add(e(ax))
            }
            y += 1
          }
          x += 1
        }
        a = b
      }
      start = end
    }

    new CorrelationModel(t.columns, marginal, pair, cond)
  }

  /** The error of each answer of `res.table` vs the result's estimate of its
    * cell (paper §5.2 definitions): 0/1 against the argmax label for
    * categorical, the signed difference from the posterior mean for
    * continuous, in the table's normalized space.
    */
  def errors(res: TCrowdResult): Array[Double] = {
    val t = res.table
    val label = Array.tabulate(t.cellIds.length)(c => if (t.cellLabels(c) > 0) argmax(res.post(c)) else -1)
    t.perAnswer { k =>
      val c = t.cell(k)
      if (t.labels(k) == 0) t.value(k) - res.mu(c)
      else if (label(c) == t.value(k).toInt) 0.0
      else 1.0
    }
  }
}
