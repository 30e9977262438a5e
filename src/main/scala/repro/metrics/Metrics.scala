package repro.metrics

import org.apache.spark.sql.DataFrame
import repro.core.{AnswerTable, CrowdDataset, Model, TruthCell}
import scala.collection.immutable.ArraySeq

/** The paper's two effectiveness measures (§6.2), as one driver-side scan
  * of the truth cells that have an estimate.
  *
  * - Error Rate: fraction of categorical cells whose estimated label differs
  *   from the ground truth.
  * - MNAD: per continuous attribute, RMSE(estimate, truth) normalized by the
  *   attribute's standard deviation *of the collected answers* (the paper
  *   names this denominator explicitly in §6.5.2), averaged over attributes.
  *   The standard deviation is the [[AnswerTable]]'s, the one every
  *   inference method normalizes with.
  */
object Metrics {

  /** (Error Rate, MNAD) of `estimates` against `truth` on the schema and
    * answers of `t`. Each is NaN when no cell of its datatype has both a
    * truth and an estimate. Truth cells on columns outside the schema are
    * ignored; of two estimates of one cell, the later counts.
    *
    * The estimates go into a dense array over the truth's row span and the
    * schema's column positions (`O(rows x columns)` memory); the truth is
    * then scanned once, in order, so each column's squared errors are
    * summed in truth order and the columns' normalized RMSEs in column-id order.
    */
  def evaluate(t: AnswerTable, truth: Seq[TruthCell], estimates: Seq[TruthCell]): (Double, Double) = {
    val nCols = t.colIds.length
    var lo = Int.MaxValue
    var hi = Int.MinValue
    for (c <- truth if t.colPos(c.col) >= 0) { lo = math.min(lo, c.row); hi = math.max(hi, c.row) }
    if (lo > hi) return (Double.NaN, Double.NaN) // no truth cell on the schema
    val span = hi.toLong - lo + 1
    require(span * nCols <= Int.MaxValue, s"truth rows $lo..$hi are too many to score")
    def slot(row: Int, p: Int): Int = (row - lo) * nCols + p

    val est = new Array[Double]((span * nCols).toInt)
    val has = new Array[Boolean](est.length)
    for (e <- estimates) {
      val p = t.colPos(e.col)
      if (p >= 0 && e.row >= lo && e.row <= hi) { est(slot(e.row, p)) = e.value; has(slot(e.row, p)) = true }
    }

    var catCells, catWrong = 0
    val sq = new Array[Double](nCols)
    val n = new Array[Int](nCols)
    for (c <- truth) {
      val p = t.colPos(c.col)
      if (p >= 0 && has(slot(c.row, p))) {
        val e = est(slot(c.row, p))
        if (t.colLabels(p) > 0) { catCells += 1; if (e != c.value) catWrong += 1 }
        else { sq(p) += (c.value - e) * (c.value - e); n(p) += 1 }
      }
    }
    val errorRate = if (catCells == 0) Double.NaN else catWrong.toDouble / catCells

    var sum = 0.0
    var cols = 0
    for (p <- t.colIds.indices.sortBy(t.colIds(_)) if n(p) > 0; (_, sd) <- t.stats.get(t.colIds(p))) {
      sum += math.sqrt(sq(p) / n(p)) / sd
      cols += 1
    }
    (errorRate, if (cols == 0) Double.NaN else sum / cols)
  }

  /** [[evaluate]] on a dataset's memoized [[CrowdDataset.table]] and [[CrowdDataset.truthCells]]. */
  def evaluate(ds: CrowdDataset, estimates: Seq[TruthCell]): (Double, Double) =
    evaluate(ds.table, ds.truthCells, estimates)

  /** The collect of the ground truth behind [[CrowdDataset.truthCells]] (one
    * Spark job), issued here so the perfbench job trace attributes it to the
    * metrics. Like [[Model.collectTable]], it reads the rows of the executed
    * plan by ordinal once [[Model.requireSchema]] has passed.
    *
    * @throws IllegalArgumentException for a relation that is not
    *         [[Model.truthSchema]] or has a null field
    */
  private[repro] def collectTruth(truth: DataFrame): Seq[TruthCell] = {
    Model.requireSchema(truth, Model.truthSchema, "truth")
    ArraySeq.unsafeWrapArray(truth.queryExecution.executedPlan.executeCollect().map { r =>
      if (r.anyNull) throw new IllegalArgumentException("truth has a null field")
      TruthCell(r.getInt(0), r.getInt(1), r.getDouble(2))
    })
  }
}
