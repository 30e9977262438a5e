package repro.core

/** Common interface of every truth-inference method compared in Table 7.
  * `infer` consumes only the answer relation + schema of `ds` (never the
  * ground truth) and returns denormalized point estimates.
  */
trait InferenceMethod {
  def name: String
  def infer(ds: CrowdDataset): Seq[TruthCell]
}

/** T-Crowd as an [[InferenceMethod]] (full / only-categorical / only-continuous). */
final case class TCrowdMethod(cfg: TCrowdConfig = TCrowdConfig()) extends InferenceMethod {
  val name = "T-Crowd"
  def infer(ds: CrowdDataset): Seq[TruthCell] = TCrowd.infer(ds, cfg).estimatesLocal
}

final case class TCrowdOnlyCate(cfg: TCrowdConfig = TCrowdConfig()) extends InferenceMethod {
  val name = "TC-onlyCate"
  def infer(ds: CrowdDataset): Seq[TruthCell] = TCrowd.inferOnlyCategorical(ds, cfg).estimatesLocal
}

final case class TCrowdOnlyCont(cfg: TCrowdConfig = TCrowdConfig()) extends InferenceMethod {
  val name = "TC-onlyCont"
  def infer(ds: CrowdDataset): Seq[TruthCell] = TCrowd.inferOnlyContinuous(ds, cfg).estimatesLocal
}
