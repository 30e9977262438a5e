package repro.baselines

import repro.core._
import repro.core.MathUtil.{argmax, softmax}
import scala.collection.mutable

/** Dawid & Skene [9] — the "EM" row of Table 7. Classic confusion-matrix EM
  * applied per categorical column (the matrices of different columns live in
  * different label spaces, so they are estimated jointly in one pass but
  * never shared — exactly the per-attribute independence T-Crowd argues
  * against).
  *
  * Each (worker, column) pair has an L x L matrix of posterior-weighted
  * confusion counts, filled by one loop over the categorical answers; the
  * E-step is a second loop. Confusion matrices are Laplace-smoothed
  * (`Delta`) since per-worker-per-column data is sparse — without smoothing
  * D&S collapses, which is the behaviour the paper's Table 7 hints at (EM
  * below Majority Voting on Celebrity).
  */
final case class DawidSkene(iters: Int = 8) extends InferenceMethod {
  val name = "EM"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val t = Model.answerTable(ds)
    val cat = t.catAnswers
    val nCols = t.colIds.length
    def pair(k: Int): Int = t.worker(k) * nCols + t.col(k) // (worker, column) of answer k
    def answer(k: Int): Int = t.value(k).toInt
    val d = DawidSkene.Delta

    // init: soft vote fractions
    val votes = t.cellLabels.map(l => new Array[Int](l))
    for (k <- cat) votes(t.cell(k))(answer(k)) += 1
    var post = votes.map { v => val c = v.map(0.1 + _); val z = c.sum; c.map(_ / z) }

    for (_ <- 0 until iters) {
      // ---- M-step: confusion counts conf(u,j)(z*L + a) = sum_i post(i,j)(z) [a_ij^u = a]
      // and their sums over a, total(u,j)(z)
      val conf, total = new Array[Array[Double]](t.workerIds.length * nCols)
      for (k <- cat) {
        val l = t.labels(k)
        if (conf(pair(k)) == null) { conf(pair(k)) = new Array[Double](l * l); total(pair(k)) = new Array[Double](l) }
        val p = post(t.cell(k))
        for (z <- 0 until l) { conf(pair(k))(z * l + answer(k)) += p(z); total(pair(k))(z) += p(z) }
      }
      // column priors = average posterior mass per label
      val prior = mutable.Map.empty[Int, Array[Double]]
      for (c <- t.catCells) {
        val acc = prior.getOrElseUpdate(t.cellIds(c)._2, Array.fill(t.cellLabels(c))(1e-6))
        post(c).indices.foreach(z => acc(z) += post(c)(z))
      }
      prior.values.foreach { acc => val s = acc.sum; acc.mapInPlace(_ / s) }

      // ---- E-step: post(i,j)(z) ∝ prior_j(z) * prod_u pi(u,j,z,a^u), where
      // pi(u,j,z,a) = (conf(u,j)(z*L + a) + Delta) / (total(u,j)(z) + Delta * L)
      val score = t.cellLabels.map(l => new Array[Double](l))
      for (k <- cat) {
        val l = t.labels(k)
        for (z <- 0 until l)
          score(t.cell(k))(z) += math.log((conf(pair(k))(z * l + answer(k)) + d) / (total(pair(k))(z) + d * l))
      }
      post = t.cellIds.indices.map { c =>
        if (t.cellLabels(c) == 0) Array.empty[Double]
        else {
          val pr = prior(t.cellIds(c)._2)
          softmax(score(c).indices.map(z => score(c)(z) + math.log(pr(z)))).toArray
        }
      }.toArray
    }
    t.catCells.toSeq.map(c => t.estimate(c, argmax(post(c)).toDouble))
  }
}

object DawidSkene {
  /** Laplace smoothing added to every confusion-matrix count. */
  val Delta = 0.3
}
