package repro.metrics

import org.apache.spark.sql.DataFrame
import repro.core.{AnswerTable, CrowdDataset, TruthCell}

/** The paper's two effectiveness measures (§6.2), as driver-side loops over
  * the truth cells that have an estimate.
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
    * truth and an estimate.
    */
  def evaluate(t: AnswerTable, truth: Seq[TruthCell], estimates: Seq[TruthCell]): (Double, Double) = {
    val est = estimates.map(e => (e.row, e.col) -> e.value).toMap
    def scored(categorical: Boolean): Seq[(TruthCell, Double)] =
      truth.filter(c => t.labelsOf.get(c.col).exists(l => (l > 0) == categorical))
        .flatMap(c => est.get((c.row, c.col)).map(c -> _))

    val cat = scored(categorical = true)
    val errorRate = if (cat.isEmpty) Double.NaN else cat.count { case (c, e) => e != c.value }.toDouble / cat.size

    val perCol = scored(categorical = false).groupBy(_._1.col).toSeq.sortBy(_._1).flatMap { case (j, cells) =>
      val rmse = math.sqrt(cells.map { case (c, e) => (c.value - e) * (c.value - e) }.sum / cells.size)
      t.stats.get(j).map { case (_, sd) => rmse / sd }
    }
    (errorRate, if (perCol.isEmpty) Double.NaN else perCol.sum / perCol.size)
  }

  /** [[evaluate]] on a dataset's memoized [[CrowdDataset.table]] and [[CrowdDataset.truthCells]]. */
  def evaluate(ds: CrowdDataset, estimates: Seq[TruthCell]): (Double, Double) =
    evaluate(ds.table, ds.truthCells, estimates)

  /** The collect of the ground truth behind [[CrowdDataset.truthCells]] (one
    * Spark job), issued here so the perfbench job trace attributes it to the metrics.
    */
  private[repro] def collectTruth(truth: DataFrame): Seq[TruthCell] =
    truth.collect().toSeq.map(r => TruthCell(r.getInt(0), r.getInt(1), r.getDouble(2)))
}
