package repro.core

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

  private lazy val dense = new CorrelationModel.Dense(this)

  /** `P(e_j | e_k = ek)` for one observed error (paper Table 5). Returns the
    * conditional distribution of e_j (categorical target: mean = error
    * probability), or None when the pair was never observed together.
    */
  def conditional(j: Int, k: Int, ek: Double): Option[CondDist] = {
    val (jx, kx) = (dense.index(j), dense.index(k))
    if (jx < 0 || kx < 0) None else Option(dense.conditional(jx, kx, ek))
  }

  /** Paper Eq. 7: `P(e_j | E_i^u)` as the `W_jk`-weighted combination of the
    * single-attribute conditionals over the worker's observed errors on the
    * row, `W_jk` floored at 1e-3 in absolute value. For a continuous target
    * the mixture's mean and full variance (within + between) are returned;
    * for a categorical target the mean is the error probability. None if no
    * observed attribute co-occurred with j.
    */
  def predict(j: Int, observed: Seq[(Int, Double)]): Option[CondDist] = {
    val jx = dense.index(j)
    var sw, mean, second = 0.0
    var n = 0L
    var parts = 0
    val it = observed.iterator
    while (it.hasNext) {
      val (k, ek) = it.next()
      val kx = dense.index(k)
      if (k != j && jx >= 0 && kx >= 0) {
        val d = dense.conditional(jx, kx, ek)
        if (d != null) {
          val wk = dense.weight(jx * dense.m + kx)
          sw += wk
          mean += wk * d.mean
          second += wk * (d.variance + d.mean * d.mean)
          n += d.n
          parts += 1
        }
      }
    }
    if (parts == 0) None
    else {
      mean /= sw
      second /= sw
      Some(CondDist(mean, math.max(second - mean * mean, 1e-9), n))
    }
  }
}

object CorrelationModel {

  /** The maps of `cm` as arrays over the sorted column ids that occur in
    * any of them, so that a conditional is a few array reads.
    */
  private final class Dense(cm: CorrelationModel) {
    private val ids: Array[Int] = (cm.isCat.keys ++ cm.marginal.keys ++
      cm.weight.keys.flatMap { case (j, k) => Seq(j, k) } ++
      cm.condOnCat.keys.flatMap { case (j, k, _) => Seq(j, k) } ++
      cm.contPair.keys.flatMap { case (j, k) => Seq(j, k) }).toArray.distinct.sorted
    val m: Int = ids.length

    /** The position of column id j in `ids`; -1 if no map mentions it. */
    def index(j: Int): Int = math.max(java.util.Arrays.binarySearch(ids, j), -1)

    private def pairs[V](f: (Int, Int) => V): IndexedSeq[V] =
      for (jx <- 0 until m; kx <- 0 until m) yield f(ids(jx), ids(kx))

    private val cat = ids.map(cm.isCat.getOrElse(_, false))
    private val marginal = ids.map(cm.marginal.getOrElse(_, null))
    /** `|W_jk|` floored at 1e-3, at `jx * m + kx`. */
    val weight: Array[Double] = pairs((j, k) => math.max(math.abs(cm.weight.getOrElse((j, k), 0.0)), 1e-3)).toArray
    private val contPair = pairs((j, k) => cm.contPair.getOrElse((j, k), null)).toArray
    /** `condOnCat` at `(jx * m + kx) * 2 + e`. */
    private val cond = pairs((j, k) => Seq(0, 1).map(e => cm.condOnCat.getOrElse((j, k, e), null))).flatten.toArray

    /** [[CorrelationModel.conditional]] of the columns at positions jx, kx; null for None. */
    def conditional(jx: Int, kx: Int, ek: Double): CondDist =
      if (cat(kx)) {
        // cases (a) cat|cat and (c) cont|cat: directly estimated
        cond((jx * m + kx) * 2 + (if (ek > 0.5) 1 else 0))
      } else if (!cat(jx)) {
        // case (b) cont|cont: conditional of a bivariate normal
        val c = contPair(jx * m + kx)
        if (c == null) null
        else {
          val (muJ, muK, varJ, varK, cov) = c
          val vk  = math.max(varK, 1e-9)
          val rho = cov / math.sqrt(math.max(varJ, 1e-9) * vk)
          val r   = math.max(-0.999, math.min(0.999, rho))
          CondDist(muJ + cov / vk * (ek - muK), (1 - r * r) * math.max(varJ, 1e-9), 1)
        }
      } else {
        // case (d) cat j | cont k: Bayes over P(e_k | e_j) normals + P(e_j)
        val d1 = cond((kx * m + jx) * 2 + 1) // e_k | e_j = 1
        val d0 = cond((kx * m + jx) * 2)     // e_k | e_j = 0
        val mj = marginal(jx)
        if (d1 == null || d0 == null || mj == null) null
        else {
          val p1 = clampProb(mj.mean)
          val l1 = normalPdf(ek, d1.mean, math.max(d1.variance, 1e-6)) * p1
          val l0 = normalPdf(ek, d0.mean, math.max(d0.variance, 1e-6)) * (1 - p1)
          val pe = if (l1 + l0 <= 0) p1 else l1 / (l1 + l0)
          CondDist(clampProb(pe), pe * (1 - pe), d1.n + d0.n)
        }
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
    * The moments sit in arrays over column positions (m x m pairs, m x m x 2
    * conditionals). The contexts come from the table's row runs: per row,
    * each worker's answers in ascending index order, the workers ascending,
    * so every moment sees its samples in `(row, worker)` order.
    *
    * @param t   the answers `res` was inferred from
    * @param res used for the truth estimates and normalization stats
    */
  def estimate(t: AnswerTable, res: TCrowdResult): CorrelationModel = {
    val isCat = t.columns.map(c => c.col -> c.isCategorical).toMap
    val m = t.colIds.length
    val col = t.col
    val e = errors(t, res)

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

    // Pearson W_jk (Eq. 8); a pair whose errors are constant gets W = 0.
    def byId[K, V](ms: Array[Moments], key: Int => K)(v: Moments => V): Map[K, V] =
      ms.indices.collect { case i if ms(i) != null => key(i) -> v(ms(i)) }.toMap
    def ids(i: Int) = (t.colIds(i / m), t.colIds(i % m))
    def dist(ms: Moments) = CondDist(ms.meanX, ms.varX, ms.n)
    CorrelationModel(isCat,
      byId(marginal, t.colIds(_))(dist),
      byId(pair, ids)(_.correlation),
      byId(cond, i => (t.colIds(i / 2 / m), t.colIds(i / 2 % m), i % 2))(dist),
      byId(pair, ids)(ms => (ms.meanX, ms.meanY, ms.varX, ms.varY, ms.cov)))
  }

  /** The error of each answer of `t` vs the current truth estimate: 0/1 for
    * categorical, signed difference for continuous, the answer normalized
    * with `res.contStats` (paper §5.2 definitions). A cell without an
    * estimate counts as truth 0 (continuous) or as answered correctly
    * (categorical).
    */
  def errors(t: AnswerTable, res: TCrowdResult): Array[Double] = {
    // Per cell, the estimate: the argmax label (-1 without a posterior) or the mean.
    val label = new Array[Int](t.cellIds.length)
    val mean = new Array[Double](t.cellIds.length)
    for (c <- t.cellIds.indices) {
      if (t.cellLabels(c) > 0) label(c) = res.catPosterior.get(t.cellIds(c)).fold(-1)(argmax)
      else mean(c) = res.contPosterior.get(t.cellIds(c)).fold(0.0)(_._1)
    }
    val stats = t.colIds.map(res.contStats.get)
    val e = new Array[Double](t.size)
    var k = 0
    while (k < t.size) {
      val c = t.cell(k)
      e(k) =
        if (t.labels(k) == 0) {
          val v = t.answers(k).value
          stats(t.col(k)).fold(v) { case (mu, sd) => (v - mu) / sd } - mean(c)
        }
        else if (label(c) < 0 || label(c) == t.value(k).toInt) 0.0
        else 1.0
      k += 1
    }
    e
  }
}
