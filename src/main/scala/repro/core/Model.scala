package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

/** One answer by one worker on one cell. Categorical values are encoded as
  * the label index (0-based) stored in `value`; continuous values are the raw
  * number. This single relation `(worker, row, col, value)` is what every
  * inference method consumes — exactly the information the paper's methods
  * see.
  */
final case class Answer(worker: Int, row: Int, col: Int, value: Double)

/** Ground-truth value of one cell (same encoding as [[Answer.value]]). */
final case class TruthCell(row: Int, col: Int, value: Double)

/** Schema of one column of the crowdsourced table.
  *
  * @param col          0-based column index
  * @param name         human-readable attribute name
  * @param numLabels    size of the label set for categorical columns; 0 for
  *                     continuous columns
  */
final case class ColumnSpec(col: Int, name: String, numLabels: Int) {
  require(numLabels == 0 || numLabels >= 2, s"categorical column needs >=2 labels, got $numLabels")
  def isCategorical: Boolean = numLabels > 0
  def isContinuous: Boolean  = !isCategorical
}

/** A crowdsourcing instance: the answer relation, the column schema, and
  * (when known — always, for synthetic data) the ground truth used only by
  * the evaluation metrics, never by inference.
  */
final case class CrowdDataset(
    name: String,
    answers: DataFrame, // worker:int, row:int, col:int, value:double
    columns: Seq[ColumnSpec],
    truth: DataFrame,   // row:int, col:int, value:double
) {
  def categoricalCols: Seq[ColumnSpec] = columns.filter(_.isCategorical)
  def continuousCols: Seq[ColumnSpec]  = columns.filter(_.isContinuous)
  def labelCount: Map[Int, Int]        = columns.map(c => c.col -> c.numLabels).toMap

  /** Restrict the instance to a subset of columns (used by the TC-onlyCate /
    * TC-onlyCont constrained variants of Table 7).
    */
  def restrictTo(cols: Seq[ColumnSpec], suffix: String): CrowdDataset = {
    val keep = cols.map(_.col).toSet
    CrowdDataset(
      s"$name-$suffix",
      answers.filter(col("col").isin(keep.toSeq: _*)),
      cols,
      truth.filter(col("col").isin(keep.toSeq: _*)),
    )
  }
}

object Model {
  /** Variance `phi_j^0` of the `N(0, phi_j^0)` truth prior of every
    * continuous column in z-normalized space (paper §4, DESIGN.md §6). Used
    * by T-Crowd, GTM and the assignment snapshot.
    */
  val PriorVar = 4.0

  val answerSchema: StructType = StructType(Seq(
    StructField("worker", IntegerType, nullable = false),
    StructField("row", IntegerType, nullable = false),
    StructField("col", IntegerType, nullable = false),
    StructField("value", DoubleType, nullable = false),
  ))

  val truthSchema: StructType = StructType(Seq(
    StructField("row", IntegerType, nullable = false),
    StructField("col", IntegerType, nullable = false),
    StructField("value", DoubleType, nullable = false),
  ))

  def answersDf(spark: SparkSession, answers: Seq[Answer]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        answers.map(a => Row(a.worker, a.row, a.col, a.value)), numSlices = 4),
      answerSchema)

  def truthDf(spark: SparkSession, cells: Seq[TruthCell]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        cells.map(t => Row(t.row, t.col, t.value)), numSlices = 4),
      truthSchema)

  /** Per-column mean/std of the *answers* of continuous columns, used to
    * z-normalize values so a single worker variance is meaningful across
    * columns of different scales (see DESIGN.md §6). Std is floored at 1e-9
    * so constant columns normalize to 0 rather than NaN. Each column's
    * values are summed in sorted order, so the stats do not depend on the
    * order of `answers`. Answers on columns outside the schema or on
    * categorical columns are ignored.
    */
  def continuousStats(columns: Seq[ColumnSpec], answers: Seq[Answer]): Map[Int, (Double, Double)] = {
    val contCols = columns.filter(_.isContinuous).map(_.col).toSet
    answers.filter(a => contCols(a.col)).groupBy(_.col).map { case (j, as) =>
      val m = new MathUtil.Moments
      as.map(_.value).sorted.foreach(v => m.add(v))
      j -> (m.meanX, math.max(math.sqrt(m.varX), 1e-9))
    }
  }

  /** z-normalize value `v` of column `c` with per-column (mean, std) stats;
    * values of columns without stats (categorical) pass through unchanged.
    */
  def normalize(stats: Map[Int, (Double, Double)], c: Int, v: Double): Double =
    stats.get(c) match {
      case Some((mu, sd)) => (v - mu) / sd
      case None           => v
    }

  /** Inverse of [[normalize]]: map a normalized value of column `c` back to raw scale. */
  def denormalize(stats: Map[Int, (Double, Double)], c: Int, v: Double): Double =
    stats.get(c) match {
      case Some((mu, sd)) => v * sd + mu
      case None           => v
    }

  /** The data boundary of every inference method: collects the answer
    * relation of `ds` (one Spark job) into an [[AnswerTable]].
    *
    * @throws IllegalArgumentException if an answer is on a column outside
    *         the schema or is a categorical answer that is not a [[label]]
    */
  def answerTable(ds: CrowdDataset): AnswerTable =
    new AnswerTable(ds.columns, sortedAnswers(ds.answers.collect()))

  /** The collected `(worker, row, col, value)` answer rows, sorted by
    * `(row, col, worker, value)`. Driver-side sums over them then run in one
    * order, whatever the partitioning or order of the answer relation.
    */
  def sortedAnswers(rows: Array[Row]): Array[Answer] =
    rows.map(r => Answer(r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3))).sorted(answerOrder)

  private val answerOrder: Ordering[Answer] = (x, y) =>
    if (x.row != y.row) Integer.compare(x.row, y.row)
    else if (x.col != y.col) Integer.compare(x.col, y.col)
    else if (x.worker != y.worker) Integer.compare(x.worker, y.worker)
    else java.lang.Double.compare(x.value, y.value)

  /** The label index of categorical answer `a` on cell `(i, j)`, whose
    * column has `l` labels. Every method that reads a categorical answer as
    * a label goes through this check.
    *
    * @throws IllegalArgumentException if `a` is not an integer in `[0, l)`
    */
  def label(i: Int, j: Int, a: Double, l: Int): Int = {
    require(a >= 0 && a < l && a == math.rint(a), s"answer $a on cell ($i, $j) is not a label in [0, $l)")
    a.toInt
  }

  /** Continuous E-step (paper §4): the Gaussian truth posterior `(mu, var)`
    * of a cell under the `N(0, PriorVar)` prior, from the sum `sw` of its
    * answers' precisions `w` and the sum `swv` of `w * value`.
    */
  def gaussian(sw: Double, swv: Double): (Double, Double) = {
    val tphi = 1.0 / (sw + 1.0 / PriorVar)
    (swv * tphi, tphi)
  }
}
