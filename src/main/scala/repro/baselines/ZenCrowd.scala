package repro.baselines

import repro.core._
import repro.core.MathUtil.{argmax, clampProb}

/** ZenCrowd [10]: Dawid&Skene collapsed to a single reliability `r_u` per
  * worker — correct with probability `r_u`, wrong answers uniform over the
  * remaining labels. EM with a closed-form M-step (`r_u` = mean posterior
  * mass of the worker's answered labels). Categorical columns only.
  */
final case class ZenCrowd(iters: Int = 10) extends InferenceMethod {
  val name = "Zencrowd"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val t = Model.answerTable(ds)
    var rel = Array.fill(t.workerIds.length)(0.8)
    def eStep() = t.labelPosteriors(k => clampProb(rel(t.worker(k))))
    var post = eStep()
    for (_ <- 0 until iters) {
      val p = post
      rel = t.meanPer(t.catAnswers, t.worker, rel.length)(k => p(t.cell(k))(t.value(k).toInt))
        .map(r => math.min(0.99, math.max(0.05, r)))
      post = eStep()
    }
    t.catCells.toSeq.map(c => t.estimate(c, argmax(post(c)).toDouble))
  }
}
