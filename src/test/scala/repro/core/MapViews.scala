package repro.core

import repro.core.MathUtil.Moments

/** A [[TCrowdResult]] as tuple-keyed maps over the dataset's own row, column
  * and worker ids: the shape of the Eq. 3–5 oracle ([[TCrowdOracle]]), whose
  * E-step `AssignmentKernelSpec` runs at a session's refreshed parameters.
  *
  * @param contPosterior (row, col) -> (mu, var) of each continuous cell, in normalized space
  * @param catPosterior  (row, col) -> label distribution of each categorical cell
  * @param phi           worker -> variance
  * @param alpha         row -> difficulty
  * @param beta          column -> difficulty, for every schema column
  * @param contStats     column -> (mean, std) of the continuous answers
  */
final case class ResultMaps(
    estimatesLocal: Seq[TruthCell],
    contPosterior: Map[(Int, Int), (Double, Double)],
    catPosterior: Map[(Int, Int), Array[Double]],
    phi: Map[Int, Double],
    alpha: Map[Int, Double],
    beta: Map[Int, Double],
    contStats: Map[Int, (Double, Double)],
    iterations: Int,
    converged: Boolean,
)

object ResultMaps {

  def apply(r: TCrowdResult): ResultMaps = {
    val t = r.table
    def byId(ids: Array[Int], v: Array[Double]): Map[Int, Double] = ids.indices.map(x => ids(x) -> v(x)).toMap
    ResultMaps(r.estimatesLocal,
      t.contCells.map(c => t.cellIds(c) -> (r.mu(c), r.tphi(c))).toMap,
      t.catCells.map(c => t.cellIds(c) -> r.post(c)).toMap,
      byId(t.workerIds, r.phi), byId(t.rowIds, r.alpha), byId(t.colIds, r.beta),
      t.stats, r.iterations, r.converged)
  }

  /** A hand-made result over table `t`: the posteriors and parameters given
    * by id. A continuous cell reads `contPosterior` and a categorical one
    * `catPosterior`; a cell not given there has the prior's posterior
    * (0, [[Model.PriorVar]]) or the uniform label distribution, and a worker,
    * row or column not given has 1.
    */
  def result(t: AnswerTable, contPosterior: Map[(Int, Int), (Double, Double)] = Map.empty,
             catPosterior: Map[(Int, Int), Array[Double]] = Map.empty, phi: Map[Int, Double] = Map.empty,
             alpha: Map[Int, Double] = Map.empty, beta: Map[Int, Double] = Map.empty): TCrowdResult = {
    val (ids, l) = (t.cellIds, t.cellLabels)
    val prior = (0.0, Model.PriorVar)
    val cont = ids.indices.map(c => if (l(c) > 0) prior else contPosterior.getOrElse(ids(c), prior))
    new TCrowdResult(t, cont.map(_._1).toArray, cont.map(_._2).toArray,
      ids.indices.map(c => if (l(c) == 0) Array.empty[Double] else catPosterior.getOrElse(ids(c), Array.fill(l(c))(1.0 / l(c)))).toArray,
      t.workerIds.map(phi.getOrElse(_, 1.0)), t.rowIds.map(alpha.getOrElse(_, 1.0)),
      t.colIds.map(beta.getOrElse(_, 1.0)), iterations = 1, converged = true)
  }
}

/** A [[CorrelationModel]] as maps keyed by column ids, the shape of
  * [[CorrelationReference]] and of the DuckDB oracle's rows.
  *
  * @param isCat     datatype of each attribute
  * @param marginal  marginal error distribution per attribute (categorical:
  *                  mean = error rate; continuous: mean/var)
  * @param weight    `W_jk` Pearson correlation of paired errors
  * @param condOnCat (j, k, e_k∈{0,1}) -> distribution of e_j given a
  *                  *categorical* conditioning attribute k
  * @param contPair  (j, k) -> bivariate moments (muJ, muK, varJ, varK, cov)
  */
final case class CorrelationMaps(
    isCat: Map[Int, Boolean],
    marginal: Map[Int, CondDist],
    weight: Map[(Int, Int), Double],
    condOnCat: Map[(Int, Int, Int), CondDist],
    contPair: Map[(Int, Int), (Double, Double, Double, Double, Double)],
)

object CorrelationMaps {

  def apply(cm: CorrelationModel): CorrelationMaps = {
    val ids = cm.columns.map(_.col).toArray
    val m = ids.length
    def byId[K, V](ms: Array[Moments], key: Int => K)(v: Moments => V): Map[K, V] =
      ms.indices.collect { case i if ms(i) != null => key(i) -> v(ms(i)) }.toMap
    def pairIds(i: Int) = (ids(i / m), ids(i % m))
    def dist(ms: Moments) = CondDist(ms.meanX, ms.varX, ms.n)
    CorrelationMaps(cm.columns.map(c => c.col -> c.isCategorical).toMap,
      byId(cm.marginal, ids(_))(dist),
      byId(cm.pair, pairIds)(_.correlation),
      byId(cm.cond, i => (ids(i / 2 / m), ids(i / 2 % m), i % 2))(dist),
      byId(cm.pair, pairIds)(ms => (ms.meanX, ms.meanY, ms.varX, ms.varY, ms.cov)))
  }
}
