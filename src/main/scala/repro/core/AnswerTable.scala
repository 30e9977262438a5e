package repro.core

import repro.core.MathUtil.softmax

/** The answer relation of one dataset, encoded for the driver-side loops of
  * every inference method, the §5.2 correlation estimate and the metrics
  * (DESIGN.md §6). Built by [[Model.answerTable]]: once per batch dataset
  * ([[CrowdDataset.table]], one Spark job), from an online session's log with none.
  *
  * The answers are sorted by `(row, col, worker, value)`, so every sum over
  * them runs in one order whatever the partitioning of the relation.
  * Workers, rows, schema columns and answered cells are dense ints: answer
  * `k` is (`worker(k)`, `row(k)`, `col(k)`, `cell(k)`, `value(k)`), where
  * `value` is the label index of a categorical answer and the z-normalized
  * value of a continuous one.
  *
  * @param columns the schema; `col` indexes `columns`
  * @param answers raw answers, sorted as above
  * @throws IllegalArgumentException naming the cell, for an answer on a
  *         column outside the schema, a categorical answer that is not a
  *         [[Model.label]], a continuous answer that is not finite, or a
  *         second answer of one worker on one cell
  */
final class AnswerTable private[core] (val columns: Seq[ColumnSpec], val answers: Array[Answer]) {
  /** Label count of each schema column; 0 if continuous. */
  val labelsOf: Map[Int, Int] = columns.map(c => c.col -> c.numLabels).toMap
  for (a <- answers) {
    if (!labelsOf.contains(a.col))
      throw new IllegalArgumentException(s"answer on cell (${a.row}, ${a.col}): column ${a.col} is not in the schema")
    if (labelsOf(a.col) == 0 && !java.lang.Double.isFinite(a.value))
      throw new IllegalArgumentException(s"answer ${a.value} on cell (${a.row}, ${a.col}) is not a finite number")
  }
  // sorted, so two answers of one worker on one cell are adjacent
  for (k <- 1 until answers.length; a = answers(k); p = answers(k - 1)
       if a.row == p.row && a.col == p.col && a.worker == p.worker)
    throw new IllegalArgumentException(s"worker ${a.worker} answered cell (${a.row}, ${a.col}) twice")

  /** Per-column (mean, std) of the continuous answers ([[Model.continuousStats]]). */
  val stats: Map[Int, (Double, Double)] = Model.continuousStats(columns, answers)
  val size: Int = answers.length

  val workerIds: Array[Int]      = answers.map(_.worker).distinct.sorted
  val rowIds: Array[Int]         = answers.map(_.row).distinct.sorted
  val colIds: Array[Int]         = columns.map(_.col).toArray
  val cellIds: Array[(Int, Int)] = answers.map(a => (a.row, a.col)).distinct

  private def encode[K](ids: Array[K], key: Answer => K): Array[Int] = {
    val idx = ids.zipWithIndex.toMap
    answers.map(a => idx(key(a)))
  }
  val worker: Array[Int] = encode(workerIds, _.worker)
  val row: Array[Int]    = encode(rowIds, _.row)
  val col: Array[Int]    = encode(colIds, _.col)
  val cell: Array[Int]   = encode(cellIds, a => (a.row, a.col))
  val value: Array[Double] = answers.map { a =>
    val l = labelsOf(a.col)
    if (l > 0) Model.label(a.row, a.col, a.value, l).toDouble else Model.normalize(stats, a.col, a.value)
  }

  /** Label count of each cell's column; 0 if continuous. */
  val cellLabels: Array[Int] = cellIds.map(c => labelsOf(c._2))
  /** Label count of answer k's column; 0 if continuous. */
  def labels(k: Int): Int = cellLabels(cell(k))

  val catCells: Array[Int]    = cellIds.indices.filter(cellLabels(_) > 0).toArray
  val contCells: Array[Int]   = cellIds.indices.filter(cellLabels(_) == 0).toArray
  val catAnswers: Array[Int]  = (0 until size).filter(labels(_) > 0).toArray
  val contAnswers: Array[Int] = (0 until size).filter(labels(_) == 0).toArray

  /** The table of the answers on the columns that satisfy `keep` (TC-onlyCate, TC-onlyCont). */
  def restrictTo(keep: ColumnSpec => Boolean): AnswerTable = {
    val cols = columns.filter(keep)
    val kept = cols.map(_.col).toSet
    new AnswerTable(cols, answers.filter(a => kept(a.col)))
  }

  /** Mean of `x` over the answers `ks`, per key: `key` maps an answer to one
    * of `n` dense ids (worker, row, col or cell). A key with no answer in
    * `ks` gets 0.
    */
  def meanPer(ks: Seq[Int], key: Array[Int], n: Int)(x: Int => Double): Array[Double] = {
    val sum = new Array[Double](n)
    val cnt = new Array[Int](n)
    ks.foreach { k => sum(key(k)) += x(k); cnt(key(k)) += 1 }
    Array.tabulate(n)(i => if (cnt(i) == 0) 0.0 else sum(i) / cnt(i))
  }

  /** Categorical E-step (paper Eq. 4) of T-Crowd, GLAD and ZenCrowd: the
    * label distribution of each cell given the probability `q(k)` that
    * answer k is right, a softmax of the per-label sums of
    * `ln q - ln((1-q)/(L-1))` over the column's full label set; a label
    * nobody answered scores 0. Continuous cells get an empty array.
    */
  def labelPosteriors(q: Int => Double): Array[Array[Double]] = {
    val score = cellLabels.map(l => new Array[Double](l))
    for (k <- catAnswers) {
      val qk = q(k)
      score(cell(k))(value(k).toInt) += math.log(qk) - math.log((1.0 - qk) / (labels(k) - 1))
    }
    score.map(s => softmax(s.toSeq).toArray)
  }

  /** Continuous E-step (paper §4) of T-Crowd and GTM: the [[Model.gaussian]]
    * posterior `(mu, var)` of each cell given the precision `w(k)` of
    * answer k, as two arrays over cells; categorical cells get the prior.
    */
  def gaussianPosteriors(w: Int => Double): (Array[Double], Array[Double]) = {
    val sw, swv = new Array[Double](cellIds.length)
    for (k <- contAnswers) {
      val wk = w(k)
      sw(cell(k)) += wk
      swv(cell(k)) += wk * value(k)
    }
    val post = cellIds.indices.map(c => Model.gaussian(sw(c), swv(c)))
    (post.map(_._1).toArray, post.map(_._2).toArray)
  }

  /** The estimate `v` of cell c as a [[TruthCell]]: a label index, or a
    * z-normalized value mapped back to raw scale.
    */
  def estimate(c: Int, v: Double): TruthCell = {
    val (i, j) = cellIds(c)
    TruthCell(i, j, Model.denormalize(stats, j, v))
  }
}
