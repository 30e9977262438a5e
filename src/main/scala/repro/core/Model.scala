package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.MathUtil.softmax

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
    * values are gathered and summed in sorted order, so the stats do not
    * depend on how the answer relation is partitioned.
    */
  def continuousStats(ds: CrowdDataset): Map[Int, (Double, Double)] = {
    val contCols = ds.continuousCols.map(_.col)
    if (contCols.isEmpty) return Map.empty
    ds.answers
      .filter(col("col").isin(contCols: _*))
      .groupBy("col")
      .agg(collect_list("value"))
      .collect()
      .map { r =>
        val m = new MathUtil.Moments
        r.getSeq[Double](1).sorted.foreach(v => m.add(v))
        r.getInt(0) -> (m.meanX, math.max(math.sqrt(m.varX), 1e-9))
      }
      .toMap
  }

  /** z-normalize value `v` of column `c` with per-column (mean, std) stats;
    * values of columns without stats (categorical) pass through unchanged.
    */
  def normalize(stats: Map[Int, (Double, Double)], c: Int, v: Double): Double =
    stats.get(c) match {
      case Some((mu, sd)) => (v - mu) / sd
      case None           => v
    }

  /** The answer relation every inference method works on: continuous values
    * z-normalized with [[continuousStats]] and an `isCat` flag. Returns the
    * stats too, for [[denormalize]].
    */
  def normalized(ds: CrowdDataset): (DataFrame, Map[Int, (Double, Double)]) = {
    val stats  = continuousStats(ds)
    val catSet = ds.labelCount.filter(_._2 > 0).keySet
    val normUdf = udf((c: Int, v: Double) => normalize(stats, c, v))
    val df = ds.answers.select(
      col("worker"), col("row"), col("col"),
      normUdf(col("col"), col("value")).as("value"),
      col("col").isin(catSet.toSeq: _*).as("isCat"))
    (df, stats)
  }

  /** Map normalized continuous estimates back to raw scale. */
  def denormalize(cells: Seq[TruthCell], stats: Map[Int, (Double, Double)]): Seq[TruthCell] =
    cells.map { c =>
      stats.get(c.col) match {
        case Some((mu, sd)) => c.copy(value = c.value * sd + mu)
        case None           => c
      }
    }

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

  /** [[gaussian]] of each cell from collected `(row, col, sum w, sum w*value)` rows. */
  def gaussianPosterior(rows: Array[Row]): Map[(Int, Int), (Double, Double)] =
    rows.map(r => (r.getInt(0), r.getInt(1)) -> gaussian(r.getDouble(2), r.getDouble(3))).toMap

  /** Categorical E-step (paper Eq. 4): the label distribution of each cell,
    * a softmax over the column's full label set of collected
    * `(row, col, label, score)` rows; a label nobody answered scores 0.
    *
    * @throws IllegalArgumentException if an answer is not a [[label]]
    */
  def labelPosterior(rows: Array[Row], labelCount: Map[Int, Int]): Map[(Int, Int), Array[Double]] =
    rows.groupBy(r => (r.getInt(0), r.getInt(1))).map { case (cell @ (i, j), rs) =>
      val l = labelCount(j)
      val score = new Array[Double](l)
      rs.foreach(r => score(label(i, j, r.getDouble(2), l)) = r.getDouble(3))
      cell -> softmax(score.toSeq).toArray
    }
}
