package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Shared plumbing for the baseline truth-inference methods.
  *
  * Like T-Crowd (DESIGN.md §6), every baseline works on the z-normalized
  * answers of [[Model.normalized]] so that a single per-worker weight/variance
  * is meaningful across columns of different scales, and denormalizes its
  * point estimates on output.
  */
object BaselineUtil {

  /** Weighted label vote: per categorical cell, the label with the largest
    * total weight (ties to the smallest label, deterministically). Input must
    * be pre-filtered to categorical answers and carry a `w` column.
    *
    * @throws IllegalArgumentException if an answer is not a [[Model.label]]
    */
  def weightedVote(catAnswers: DataFrame, labelCount: Map[Int, Int]): Map[(Int, Int), Int] =
    catAnswers
      .groupBy("row", "col", "value")
      .agg(sum("w").as("sw"))
      .collect()
      .groupBy(r => (r.getInt(0), r.getInt(1)))
      .map { case (cell @ (i, j), rs) =>
        cell -> rs.map(r => (Model.label(i, j, r.getDouble(2), labelCount(j)), r.getDouble(3)))
          .minBy { case (lbl, sw) => (-sw, lbl) }._1
      }

  /** Weighted mean per continuous cell. Input must be pre-filtered to
    * continuous answers and carry a `w` column.
    */
  def weightedMean(contAnswers: DataFrame): Map[(Int, Int), Double] =
    contAnswers
      .groupBy("row", "col")
      .agg(sum(expr("w * value")).as("swv"), sum("w").as("sw"))
      .collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2) / math.max(r.getDouble(3), 1e-12))
      .toMap

  /** Point estimates of the loss-based methods (CRH, CATD): a label per
    * categorical cell and a normalized value per continuous cell.
    */
  type Estimates = (Map[(Int, Int), Int], Map[(Int, Int), Double])

  /** Truth update of CRH/CATD under per-worker weights: weighted vote on the
    * categorical and weighted mean on the continuous normalized answers.
    */
  def weightedTruth(ans: DataFrame, weights: Map[Int, Double], labelCount: Map[Int, Int]): Estimates = {
    val wUdf = udf { (u: Int) => weights(u) }
    val withW = ans.withColumn("w", wUdf(col("worker")))
    (weightedVote(withW.filter(col("isCat")), labelCount), weightedMean(withW.filter(!col("isCat"))))
  }

  /** Adds each answer's `loss` against the estimates: 0/1 on categorical
    * cells, squared error on normalized continuous cells.
    */
  def withLoss(ans: DataFrame, est: Estimates): DataFrame = {
    val (catEst, contEst) = est
    val lossUdf = udf { (i: Int, j: Int, v: Double, isCat: Boolean) =>
      if (isCat) { if (catEst((i, j)) == v.toInt) 0.0 else 1.0 }
      else { val d = v - contEst((i, j)); d * d }
    }
    ans.withColumn("loss", lossUdf(col("row"), col("col"), col("value"), col("isCat")))
  }

  /** Assemble denormalized point estimates. */
  def assemble(est: Estimates, stats: Map[Int, (Double, Double)]): Seq[TruthCell] = {
    val (catEst, contEst) = est
    val cat  = catEst.map { case ((i, j), z) => TruthCell(i, j, z.toDouble) }.toSeq
    val cont = Model.denormalize(
      contEst.map { case ((i, j), v) => TruthCell(i, j, v) }.toSeq, stats)
    cat ++ cont
  }
}
