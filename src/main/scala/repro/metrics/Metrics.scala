package repro.metrics

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CrowdDataset, Model, TruthCell}

/** The paper's two effectiveness measures (§6.2), as Spark aggregations
  * over the estimates joined with the ground truth.
  *
  * - Error Rate: fraction of categorical cells whose estimated label differs
  *   from the ground truth.
  * - MNAD: per continuous attribute, RMSE(estimate, truth) normalized by the
  *   attribute's standard deviation *of the collected answers* (the paper
  *   names this denominator explicitly in §6.5.2), averaged over attributes.
  *   The standard deviation is [[Model.continuousStats]]'s, the one every
  *   inference method normalizes with.
  */
object Metrics {

  /** Error Rate over categorical cells. NaN when the dataset has none. */
  def errorRate(ds: CrowdDataset, estimates: DataFrame): Double = {
    val catCols = ds.categoricalCols.map(_.col)
    if (catCols.isEmpty) return Double.NaN
    val joined = ds.truth.filter(col("col").isin(catCols: _*))
      .join(estimates, Seq("row", "col"))
    val r = joined.agg(
      avg(when(col("value") =!= col("est"), 1.0).otherwise(0.0)).as("er")
    ).collect()(0)
    if (r.isNullAt(0)) Double.NaN else r.getDouble(0)
  }

  /** MNAD over continuous cells. NaN when the dataset has none. */
  def mnad(ds: CrowdDataset, estimates: DataFrame): Double = {
    val contCols = ds.continuousCols.map(_.col)
    if (contCols.isEmpty) return Double.NaN
    val answerSd = Model.continuousStats(ds.columns,
      Model.sortedAnswers(ds.answers.filter(col("col").isin(contCols: _*)).collect()))
    val perCol = ds.truth.filter(col("col").isin(contCols: _*))
      .join(estimates, Seq("row", "col"))
      .groupBy("col")
      .agg(sqrt(avg(pow(col("value") - col("est"), 2))).as("rmse"))
      .collect()
      .flatMap(r => answerSd.get(r.getInt(0)).map { case (_, sd) => r.getDouble(1) / sd })
    if (perCol.isEmpty) Double.NaN else perCol.sum / perCol.length
  }

  /** Convenience overload for methods that return driver-side estimates. */
  def errorRate(ds: CrowdDataset, estimates: Seq[TruthCell]): Double =
    errorRate(ds, estimatesDf(ds, estimates))

  def mnad(ds: CrowdDataset, estimates: Seq[TruthCell]): Double =
    mnad(ds, estimatesDf(ds, estimates))

  /** Both measures in one pass-friendly call. */
  def evaluate(ds: CrowdDataset, estimates: Seq[TruthCell]): (Double, Double) = {
    val df = estimatesDf(ds, estimates).cache()
    val out = (errorRate(ds, df), mnad(ds, df))
    df.unpersist()
    out
  }

  private def estimatesDf(ds: CrowdDataset, estimates: Seq[TruthCell]): DataFrame =
    Model.truthDf(ds.answers.sparkSession, estimates).withColumnRenamed("value", "est")
}
