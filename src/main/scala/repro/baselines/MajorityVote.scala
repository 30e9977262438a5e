package repro.baselines

import org.apache.spark.sql.functions._
import repro.core._

/** Majority Voting (Table 7 "Maj. Voting"): per categorical cell, the most
  * frequent answer wins; ties break to the smallest label, deterministically.
  * Continuous columns are out of scope for this baseline (the paper pairs it
  * with Median for those).
  */
object MajorityVote extends InferenceMethod {
  val name = "Maj. Voting"

  def infer(ds: CrowdDataset): Seq[TruthCell] = {
    val catCols = ds.categoricalCols.map(_.col)
    if (catCols.isEmpty) return Seq.empty
    val cat = ds.answers.filter(col("col").isin(catCols: _*)).withColumn("w", lit(1.0))
    BaselineUtil.weightedVote(cat, ds.labelCount).map { case ((i, j), z) => TruthCell(i, j, z.toDouble) }.toSeq
  }
}
