package repro.baselines

import repro.core.{AnswerTable, InferenceMethod, TruthCell}

/** Quality-blind heterogeneous aggregation: majority vote on categorical
  * columns + median on continuous columns. This is the inference model
  * behind the CDAS and AskIt! systems in the paper's end-to-end comparison
  * (both infer by simple aggregation, not worker modeling).
  */
object VoteMedian extends InferenceMethod {
  val name = "MV+Median"
  def infer(t: AnswerTable): Seq[TruthCell] =
    MajorityVote.infer(t) ++ MedianBaseline.infer(t)
}
