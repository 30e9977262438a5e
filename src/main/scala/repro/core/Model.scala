package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
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
  *
  * [[table]] and [[truthCells]] are collected once, on first use; a `copy` starts afresh.
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

  /** The validated answer table every inference method reads ([[Model.collectTable]]). */
  lazy val table: AnswerTable = Model.collectTable(this)
  /** The ground truth, read only by the metrics ([[repro.metrics.Metrics.collectTruth]]). */
  lazy val truthCells: Seq[TruthCell] = repro.metrics.Metrics.collectTruth(truth)
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
    * values are copied into one `double[]` and summed in sorted order, so
    * the stats do not depend on the order of `answers`.
    *
    * @param col the position in `columns` of each answer's column ([[AnswerTable.col]])
    */
  private[core] def continuousStats(columns: Seq[ColumnSpec], answers: Array[Answer],
                                    col: Array[Int]): Map[Int, (Double, Double)] = {
    val isCont = columns.map(_.isContinuous).toArray
    val count = new Array[Int](isCont.length)
    var k = 0
    while (k < answers.length) { if (isCont(col(k))) count(col(k)) += 1; k += 1 }
    val values = count.map(n => new Array[Double](n))
    java.util.Arrays.fill(count, 0)
    k = 0
    while (k < answers.length) {
      val p = col(k)
      if (isCont(p)) { values(p)(count(p)) = answers(k).value; count(p) += 1 }
      k += 1
    }
    columns.indices.filter(values(_).nonEmpty).map { p =>
      val vs = values(p)
      java.util.Arrays.sort(vs)
      val m = new MathUtil.Moments
      var i = 0
      while (i < vs.length) { m.add(vs(i)); i += 1 }
      columns(p).col -> (m.meanX, math.max(math.sqrt(m.varX), 1e-9))
    }.toMap
  }

  /** The one map from column id to position in `columns`, read by
    * [[AnswerTable.colPos]] and [[Snapshot]]: a dense array over the ids
    * `0..max id`, looked up as a function that gives -1 for an id outside
    * the schema.
    *
    * @throws IllegalArgumentException naming the id, for a negative or a
    *         repeated column id
    */
  private[core] def columnPositions(columns: Seq[ColumnSpec]): Int => Int = {
    val pos = Array.fill(columns.map(_.col + 1).maxOption.getOrElse(0))(-1)
    for ((c, p) <- columns.zipWithIndex) {
      require(c.col >= 0, s"column id ${c.col} is negative")
      require(pos(c.col) < 0, s"column id ${c.col} is repeated in the schema")
      pos(c.col) = p
    }
    j => if (j >= 0 && j < pos.length) pos(j) else -1
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
    * relation of `ds` (one Spark job) into [[CrowdDataset.table]], from
    * here so that the perfbench job trace attributes it to this object.
    * The rows come straight off the executed plan and are read by ordinal,
    * after [[requireSchema]] has checked that the ordinals mean what they say.
    *
    * @throws IllegalArgumentException for a relation that is not
    *         [[answerSchema]] or has a null field, and as [[AnswerTable]] does
    */
  private[core] def collectTable(ds: CrowdDataset): AnswerTable = {
    requireSchema(ds.answers, answerSchema, "answers")
    sortedTable(ds.columns, ds.answers.queryExecution.executedPlan.executeCollect().map { r =>
      if (r.anyNull) throw new IllegalArgumentException("answers has a null field")
      Answer(r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3))
    })
  }

  /** Checks that `df` has exactly the fields of `schema`, by name and type
    * in order (nullability aside), before its rows are read by ordinal: an
    * int slot read as a double would silently reinterpret its bits.
    *
    * @throws IllegalArgumentException naming the first field that differs
    */
  private[repro] def requireSchema(df: DataFrame, schema: StructType, relation: String): Unit = {
    def field(fs: Array[StructField], i: Int): String =
      if (i < fs.length) s"${fs(i).name}: ${fs(i).dataType.simpleString}" else "missing"
    val got = df.schema.fields
    for (i <- 0 until math.max(got.length, schema.length)) {
      val (g, w) = (field(got, i), field(schema.fields, i))
      if (g != w) throw new IllegalArgumentException(s"$relation field $i is $g, expected $w")
    }
  }

  /** The [[AnswerTable]] of driver-side `answers` under the schema
    * `columns`. The answers are sorted by `(row, col, worker, value)`, so
    * every sum over them runs in one order, whatever the order or
    * partitioning they came in.
    *
    * @throws IllegalArgumentException as [[AnswerTable]] does
    */
  def answerTable(columns: Seq[ColumnSpec], answers: Iterable[Answer]): AnswerTable =
    sortedTable(columns, answers.toArray)

  /** [[answerTable]] of an array it may sort in place. */
  private def sortedTable(columns: Seq[ColumnSpec], answers: Array[Answer]): AnswerTable = {
    java.util.Arrays.sort(answers, answerOrder)
    new AnswerTable(columns, answers)
  }

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
