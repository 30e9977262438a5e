package repro.core

import repro.core.MathUtil.{Moments, argmax, clampProb, normalPdf}
import scala.collection.mutable

/** The map-based §5.2 code that [[Correlation.estimate]] and
  * [[CorrelationModel.predict]] replaced, kept as the reference they must
  * equal exactly (`CorrelationSpec`, `AssignmentKernelSpec`): the errors
  * look each answer's cell up in the result's maps, the estimate groups the
  * answers by a `(row, worker)` tuple key and updates moments in tuple-keyed
  * maps for every ordered pair of one worker's answers on one row, and the
  * prediction looks every conditional up in the model's maps.
  */
object CorrelationReference {

  def estimate(t: AnswerTable, res: TCrowdResult): CorrelationModel = {
    val isCat = t.columns.map(c => c.col -> c.isCategorical).toMap
    val answers = t.answers
    val e = errors(t, res)

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

    val weight = pair.map { case (jk, m) => jk -> m.correlation }.toMap
    val contPair = pair.map { case (jk, m) => jk -> (m.meanX, m.meanY, m.varX, m.varY, m.cov) }.toMap
    def dist(m: Moments) = CondDist(m.meanX, m.varX, m.n)
    CorrelationModel(isCat, marginal.map { case (j, m) => j -> dist(m) }.toMap, weight,
      cond.map { case (c, m) => c -> dist(m) }.toMap, contPair)
  }

  def errors(t: AnswerTable, res: TCrowdResult): Array[Double] = {
    val catArg: Map[(Int, Int), Int] = res.catPosterior.map { case (c, p) => c -> argmax(p) }
    Array.tabulate(t.size) { k =>
      val a = t.answers(k)
      if (t.labels(k) == 0)
        Model.normalize(res.contStats, a.col, a.value) -
          res.contPosterior.get((a.row, a.col)).map(_._1).getOrElse(0.0)
      else if (catArg.get((a.row, a.col)).forall(_ == t.value(k).toInt)) 0.0
      else 1.0
    }
  }

  private def w(cm: CorrelationModel, j: Int, k: Int): Double =
    math.max(math.abs(cm.weight.getOrElse((j, k), 0.0)), 1e-3)

  def conditional(cm: CorrelationModel, j: Int, k: Int, ek: Double): Option[CondDist] = {
    val jCat = cm.isCat.getOrElse(j, false)
    val kCat = cm.isCat.getOrElse(k, false)
    if (kCat) {
      cm.condOnCat.get((j, k, if (ek > 0.5) 1 else 0))
    } else if (!jCat) {
      cm.contPair.get((j, k)).map { case (muJ, muK, varJ, varK, cov) =>
        val vk  = math.max(varK, 1e-9)
        val rho = cov / math.sqrt(math.max(varJ, 1e-9) * vk)
        val r   = math.max(-0.999, math.min(0.999, rho))
        CondDist(muJ + cov / vk * (ek - muK), (1 - r * r) * math.max(varJ, 1e-9), 1)
      }
    } else {
      for {
        d1 <- cm.condOnCat.get((k, j, 1))
        d0 <- cm.condOnCat.get((k, j, 0))
        m  <- cm.marginal.get(j)
      } yield {
        val p1 = clampProb(m.mean)
        val l1 = normalPdf(ek, d1.mean, math.max(d1.variance, 1e-6)) * p1
        val l0 = normalPdf(ek, d0.mean, math.max(d0.variance, 1e-6)) * (1 - p1)
        val pe = if (l1 + l0 <= 0) p1 else l1 / (l1 + l0)
        CondDist(clampProb(pe), pe * (1 - pe), d1.n + d0.n)
      }
    }
  }

  def predict(cm: CorrelationModel, j: Int, observed: Seq[(Int, Double)]): Option[CondDist] = {
    val parts = observed.flatMap { case (k, ek) =>
      if (k == j) None else conditional(cm, j, k, ek).map(d => (w(cm, j, k), d))
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
