package repro.core

/** Hand-made results for the tests' fixtures. */
object ResultMaps {

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
