package repro.core

import repro.core.MathUtil._
import scala.collection.mutable

/** The map-based scoring that the dense pick of [[AssignState.bestOpenCell]]
  * replaced, kept as the reference the kernel must match bit for bit
  * (`AssignmentKernelSpec`, `InfoGainProps`): posteriors in tuple-keyed maps,
  * the open cells as an iterator over a per-worker set, the worker's row
  * errors recomputed for every candidate cell, `maxBy` over the scores, the
  * categorical gain that builds every answer's posterior, and the §5.2
  * prediction of [[CorrelationReference]].
  */
object AssignmentReference {

  /** Shannon entropy (nats) over a boxed `Iterable`; zero entries skipped. */
  def shannonEntropy(probs: Iterable[Double]): Double =
    -probs.filter(_ > 0).map(p => p * math.log(p)).sum

  /** The gain of a categorical cell as a sum over freshly built answer
    * posteriors, each entropy taken over a boxed `Iterable`.
    */
  def categoricalGain(probs: Array[Double], q: Double): Double = {
    val l = probs.length
    if (l < 2) return 0.0
    val qc = clampProb(q)
    val wrong = (1.0 - qc) / (l - 1)
    val h0 = shannonEntropy(probs)
    var expected = 0.0
    var z = 0
    while (z < l) {
      val pa = probs(z) * qc + (1.0 - probs(z)) * wrong
      if (pa > 1e-15)
        expected += pa * shannonEntropy(InfoGain.answerPosterior(probs, qc, z))
      z += 1
    }
    h0 - expected
  }

  /** Posteriors keyed by `(row, col)`; unseen cells are uniform / prior. */
  final class MapSnapshot(var res: TCrowdResult, val labelCount: Map[Int, Int]) {
    val contPost: mutable.Map[(Int, Int), (Double, Double)] = mutable.Map.from(res.contPosterior)
    val catPost: mutable.Map[(Int, Int), Array[Double]]     = mutable.Map.from(res.catPosterior)

    def refresh(r: TCrowdResult): Unit = {
      res = r
      contPost.clear(); contPost ++= r.contPosterior
      catPost.clear(); catPost ++= r.catPosterior
    }

    def contOf(i: Int, j: Int): (Double, Double) = contPost.getOrElse((i, j), (0.0, Model.PriorVar))

    /** Answer variance `alpha_i * beta_j * phi_u` of worker u on cell (i, j); a missing parameter is 1. */
    def answerVariance(u: Int, i: Int, j: Int): Double =
      res.alpha.getOrElse(i, 1.0) * res.beta.getOrElse(j, 1.0) * res.phi.getOrElse(u, 1.0)

    def catOf(i: Int, j: Int): Array[Double] = {
      val l = labelCount(j)
      catPost.getOrElse((i, j), Array.fill(l)(1.0 / l))
    }

    def estimateOf(i: Int, j: Int): Double =
      if (labelCount.getOrElse(j, 0) > 0) argmax(catOf(i, j)).toDouble
      else contOf(i, j)._1

    def normalize(j: Int, v: Double): Double = Model.normalize(res.contStats, j, v)

    def applyAnswer(u: Int, i: Int, j: Int, raw: Double): Unit = {
      val v = answerVariance(u, i, j)
      if (labelCount.getOrElse(j, 0) > 0) {
        catPost((i, j)) = InfoGain.answerPosterior(catOf(i, j), quality(TCrowd.Eps, v), raw.toInt)
      } else {
        val (mu, tphi) = contOf(i, j)
        val w = 1.0 / math.max(v, 1e-9)
        val nphi = 1.0 / (1.0 / tphi + w)
        val nmu = (mu / tphi + w * normalize(j, raw)) * nphi
        contPost((i, j)) = (nmu, nphi)
      }
    }
  }

  /** The answered cells and row answers of a session, rebuilt from its log. */
  final class MapState(val numRows: Int, val columns: Seq[ColumnSpec], val snapshot: MapSnapshot) {
    var corr: Option[CorrelationModel] = None
    val answeredBy: mutable.Map[Int, mutable.Set[(Int, Int)]] = mutable.Map.empty
    val rowAnswers: mutable.Map[(Int, Int), mutable.Buffer[(Int, Double)]] = mutable.Map.empty

    def record(a: Answer): Unit = {
      answeredBy.getOrElseUpdate(a.worker, mutable.Set.empty) += ((a.row, a.col))
      rowAnswers.getOrElseUpdate((a.worker, a.row), mutable.Buffer.empty) += ((a.col, a.value))
    }

    def availableCells(u: Int): Iterator[(Int, Int)] = {
      val done = answeredBy.getOrElse(u, mutable.Set.empty)
      for {
        i <- (0 until numRows).iterator
        c <- columns.iterator
        if !done.contains((i, c.col))
      } yield (i, c.col)
    }

    def workerErrorsOnRow(u: Int, i: Int): Seq[(Int, Double)] =
      rowAnswers.getOrElse((u, i), mutable.Buffer.empty).toSeq.map { case (j, raw) =>
        if (snapshot.labelCount.getOrElse(j, 0) > 0) {
          val est = snapshot.estimateOf(i, j)
          j -> (if (est.toInt == raw.toInt) 0.0 else 1.0)
        } else {
          j -> (snapshot.normalize(j, raw) - snapshot.contOf(i, j)._1)
        }
      }
  }

  def entropy(snap: MapSnapshot, i: Int, j: Int): Double =
    InfoGain.uniformEntropy(snap.labelCount.getOrElse(j, 0) > 0, snap.catOf(i, j), snap.contOf(i, j)._2)

  def inherentGain(snap: MapSnapshot, u: Int, i: Int, j: Int): Double =
    if (snap.labelCount.getOrElse(j, 0) > 0)
      categoricalGain(snap.catOf(i, j), quality(TCrowd.Eps, snap.answerVariance(u, i, j)))
    else
      InfoGain.continuousGain(snap.contOf(i, j)._2, snap.answerVariance(u, i, j))

  /** The §5.2 error distribution predicted for worker u on cell (i, j), if any. */
  def predicted(st: MapState, u: Int, i: Int, j: Int): Option[CondDist] =
    for {
      model <- st.corr
      obs = st.workerErrorsOnRow(u, i)
      if obs.nonEmpty
      d <- CorrelationReference.predict(model, j, obs)
    } yield d

  def structureAwareGain(st: MapState, u: Int, i: Int, j: Int): Double = {
    val snap = st.snapshot
    predicted(st, u, i, j) match {
      case None => inherentGain(snap, u, i, j)
      case Some(d) =>
        if (snap.labelCount.getOrElse(j, 0) > 0)
          categoricalGain(snap.catOf(i, j), clampProb(1.0 - d.mean))
        else
          InfoGain.continuousGain(snap.contOf(i, j)._2,
            math.max(d.variance + d.mean * d.mean, 1e-6))
    }
  }

  /** The cell `strategy` picks for worker u and its score, by `maxBy`. */
  def pick(strategy: String, st: MapState, u: Int): Option[((Int, Int), Double)] = {
    val score: ((Int, Int)) => Double = strategy match {
      case "Entropy"     => { case (i, j) => entropy(st.snapshot, i, j) }
      case "Inherent IG" => { case (i, j) => inherentGain(st.snapshot, u, i, j) }
      case "Struct IG"   => { case (i, j) => structureAwareGain(st, u, i, j) }
    }
    val avail = st.availableCells(u)
    if (avail.isEmpty) None
    else {
      val best = avail.maxBy(score)
      Some((best, score(best)))
    }
  }
}
