package repro.core

/** Common interface of every truth-inference method compared in Table 7.
  * A method reads only the answers and schema of an [[AnswerTable]] (never
  * the ground truth) and returns denormalized point estimates.
  */
trait InferenceMethod {
  def name: String
  def infer(t: AnswerTable): Seq[TruthCell]
  /** [[infer]] on [[CrowdDataset.table]]: one Spark job on the dataset's first read, none after. */
  final def infer(ds: CrowdDataset): Seq[TruthCell] = infer(ds.table)
}

/** T-Crowd as an [[InferenceMethod]] (full / only-categorical / only-continuous). */
final case class TCrowdMethod(cfg: TCrowdConfig) extends InferenceMethod {
  val name = "T-Crowd"
  def infer(t: AnswerTable): Seq[TruthCell] = TCrowd.infer(t, cfg).estimatesLocal
}

final case class TCrowdOnlyCate(cfg: TCrowdConfig) extends InferenceMethod {
  val name = "TC-onlyCate"
  def infer(t: AnswerTable): Seq[TruthCell] = TCrowd.infer(t.restrictTo(_.isCategorical), cfg).estimatesLocal
}

final case class TCrowdOnlyCont(cfg: TCrowdConfig) extends InferenceMethod {
  val name = "TC-onlyCont"
  def infer(t: AnswerTable): Seq[TruthCell] = TCrowd.infer(t.restrictTo(_.isContinuous), cfg).estimatesLocal
}
