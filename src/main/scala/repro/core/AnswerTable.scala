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
  * The table is built by a few primitive loops over the sorted answers: a
  * column position per answer (which also validates it), rows and cells as
  * runs of consecutive answers, worker ids by a sort of the worker column
  * and a binary search, and the stats from one sorted `double[]` per
  * column.
  *
  * @param columns the schema; `col` indexes `columns`
  * @param answers raw answers, sorted as above
  * @throws IllegalArgumentException naming the id, for a schema with a
  *         negative or repeated column id ([[Model.columnPositions]]); then,
  *         naming the cell, for an answer on a column outside the schema, a
  *         continuous answer that is not finite (these two checked first), a
  *         second answer of one worker on one cell, or a categorical answer
  *         that is not a [[Model.label]] (checked last)
  */
final class AnswerTable private[core] (val columns: Seq[ColumnSpec], val answers: Array[Answer]) {
  val size: Int = answers.length
  val colIds: Array[Int] = columns.map(_.col).toArray
  /** Label count of the schema column at each position of `columns`; 0 if continuous. */
  val colLabels: Array[Int] = columns.map(_.numLabels).toArray
  private val position = Model.columnPositions(columns)
  /** The position in `columns` of column id `j`; -1 if `j` is not in the schema. */
  def colPos(j: Int): Int = position(j)

  val col: Array[Int] = {
    val c = new Array[Int](size)
    var k = 0
    while (k < size) {
      val a = answers(k)
      c(k) = position(a.col)
      if (c(k) < 0)
        throw new IllegalArgumentException(s"answer on cell (${a.row}, ${a.col}): column ${a.col} is not in the schema")
      if (colLabels(c(k)) == 0 && !java.lang.Double.isFinite(a.value))
        throw new IllegalArgumentException(s"answer ${a.value} on cell (${a.row}, ${a.col}) is not a finite number")
      k += 1
    }
    c
  }

  // Sorted, so each row and each cell is a run of consecutive answers, and
  // two answers of one worker on one cell are adjacent.
  val row, cell = new Array[Int](size)
  val rowIds: Array[Int] = {
    val ids = Array.newBuilder[Int]
    var k = 0
    while (k < size) {
      if (k == 0 || answers(k).row != answers(k - 1).row) ids += answers(k).row
      row(k) = ids.length - 1
      k += 1
    }
    ids.result()
  }
  val cellIds: Array[(Int, Int)] = {
    val ids = Array.newBuilder[(Int, Int)]
    var k = 0
    while (k < size) {
      val a = answers(k)
      val sameCell = k > 0 && a.row == answers(k - 1).row && a.col == answers(k - 1).col
      if (sameCell && a.worker == answers(k - 1).worker)
        throw new IllegalArgumentException(s"worker ${a.worker} answered cell (${a.row}, ${a.col}) twice")
      if (!sameCell) ids += ((a.row, a.col))
      cell(k) = ids.length - 1
      k += 1
    }
    ids.result()
  }

  val workerIds: Array[Int] = {
    val ws = new Array[Int](size)
    var k = 0
    while (k < size) { ws(k) = answers(k).worker; k += 1 }
    java.util.Arrays.sort(ws)
    var n = 0
    k = 0
    while (k < size) {
      if (n == 0 || ws(k) != ws(n - 1)) { ws(n) = ws(k); n += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(ws, n)
  }
  val worker: Array[Int] = {
    val w = new Array[Int](size)
    var k = 0
    while (k < size) { w(k) = java.util.Arrays.binarySearch(workerIds, answers(k).worker); k += 1 }
    w
  }

  /** Per-column (mean, std) of the continuous answers ([[Model.continuousStats]]). */
  val stats: Map[Int, (Double, Double)] = Model.continuousStats(columns, answers, col)
  val value: Array[Double] = {
    val v = new Array[Double](size)
    var k = 0
    while (k < size) {
      val a = answers(k)
      val l = colLabels(col(k))
      v(k) = if (l > 0) Model.label(a.row, a.col, a.value, l).toDouble else Model.normalize(stats, a.col, a.value)
      k += 1
    }
    v
  }

  /** Label count of each cell's column; 0 if continuous. */
  val cellLabels: Array[Int] = {
    val l = new Array[Int](cellIds.length)
    var k = 0
    while (k < size) { l(cell(k)) = colLabels(col(k)); k += 1 }
    l
  }
  /** Label count of answer k's column; 0 if continuous. */
  def labels(k: Int): Int = cellLabels(cell(k))

  val catCells: Array[Int]    = indicesWhere(cellIds.length)(cellLabels(_) > 0)
  val contCells: Array[Int]   = indicesWhere(cellIds.length)(cellLabels(_) == 0)
  val catAnswers: Array[Int]  = indicesWhere(size)(labels(_) > 0)
  val contAnswers: Array[Int] = indicesWhere(size)(labels(_) == 0)

  /** The indices in `[0, n)` that satisfy `p`, ascending. */
  private def indicesWhere(n: Int)(p: Int => Boolean): Array[Int] = {
    val b = Array.newBuilder[Int]
    var i = 0
    while (i < n) { if (p(i)) b += i; i += 1 }
    b.result()
  }

  /** The table of the answers on the columns that satisfy `keep` (TC-onlyCate, TC-onlyCont). */
  def restrictTo(keep: ColumnSpec => Boolean): AnswerTable = {
    val cols = columns.filter(keep)
    val kept = cols.map(_.col).toSet
    new AnswerTable(cols, answers.filter(a => kept(a.col)))
  }

  /** `x(k)` of every answer k, in a primitive array (`Array.tabulate` would
    * box each value).
    */
  def perAnswer(x: Int => Double): Array[Double] = {
    val a = new Array[Double](size)
    var k = 0
    while (k < size) { a(k) = x(k); k += 1 }
    a
  }

  /** Mean of `x` over the answers `ks`, per key: `key` maps an answer to one
    * of `n` dense ids (worker, row, col or cell). A key with no answer in
    * `ks` gets 0.
    */
  def meanPer(ks: Array[Int], key: Array[Int], n: Int)(x: Int => Double): Array[Double] = {
    val sum = new Array[Double](n)
    val cnt = new Array[Int](n)
    var t = 0
    while (t < ks.length) {
      val k = ks(t)
      sum(key(k)) += x(k)
      cnt(key(k)) += 1
      t += 1
    }
    var i = 0
    while (i < n) { if (cnt(i) > 0) sum(i) /= cnt(i); i += 1 }
    sum
  }

  /** Categorical E-step (paper Eq. 4) of T-Crowd, GLAD and ZenCrowd: the
    * label distribution of each cell given the probability `q(k)` that
    * answer k is right, a softmax of the per-label sums of
    * `ln q - ln((1-q)/(L-1))` over the column's full label set; a label
    * nobody answered scores 0. Continuous cells get an empty array.
    */
  def labelPosteriors(q: Int => Double): Array[Array[Double]] = {
    val score = Array.tabulate(cellIds.length)(c => new Array[Double](cellLabels(c)))
    var t = 0
    while (t < catAnswers.length) {
      val k = catAnswers(t)
      val qk = q(k)
      score(cell(k))(value(k).toInt) += math.log(qk) - math.log((1.0 - qk) / (labels(k) - 1))
      t += 1
    }
    score.map(softmax)
  }

  /** Continuous E-step (paper §4) of T-Crowd and GTM: the [[Model.gaussian]]
    * posterior `(mu, var)` of each cell given the precision `w(k)` of
    * answer k, as two arrays over cells; categorical cells get the prior.
    */
  def gaussianPosteriors(w: Int => Double): (Array[Double], Array[Double]) = {
    val sw, swv = new Array[Double](cellIds.length)
    var t = 0
    while (t < contAnswers.length) {
      val k = contAnswers(t)
      val wk = w(k)
      sw(cell(k)) += wk
      swv(cell(k)) += wk * value(k)
      t += 1
    }
    val mu, tphi = new Array[Double](cellIds.length)
    var c = 0
    while (c < mu.length) {
      val post = Model.gaussian(sw(c), swv(c))
      mu(c) = post._1
      tphi(c) = post._2
      c += 1
    }
    (mu, tphi)
  }

  /** The estimate `v` of cell c as a [[TruthCell]]: a label index, or a
    * z-normalized value mapped back to raw scale.
    */
  def estimate(c: Int, v: Double): TruthCell = {
    val (i, j) = cellIds(c)
    TruthCell(i, j, Model.denormalize(stats, j, v))
  }
}
