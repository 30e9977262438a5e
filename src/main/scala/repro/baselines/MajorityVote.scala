package repro.baselines

import repro.core._

/** Majority Voting (Table 7 "Maj. Voting"): per categorical cell, the most
  * frequent answer wins; ties break to the smallest label, deterministically.
  * Continuous columns are out of scope for this baseline (the paper pairs it
  * with Median for those).
  */
object MajorityVote extends InferenceMethod {
  val name = "Maj. Voting"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val t = Model.answerTable(ds)
    val est = BaselineUtil.weightedTruth(t, Array.fill(t.workerIds.length)(1.0))
    t.catCells.toSeq.map(c => t.estimate(c, est(c)))
  }
}
