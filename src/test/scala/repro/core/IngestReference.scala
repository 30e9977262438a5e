package repro.core

import scala.collection.immutable.ArraySeq

/** The answer-table build, softmax and metrics that the primitive loops of
  * [[AnswerTable]], [[MathUtil.softmax]] and `Metrics.evaluate` replaced,
  * kept as the reference they must match bit for bit (`IngestProps`):
  * `Map` lookups and `zipWithIndex.toMap` encodings, `distinct` on tuples,
  * stats from `groupBy` and `sorted`, a softmax over a boxed `Seq`, and
  * metrics from a tuple-keyed estimate map and a `groupBy` of the scored cells.
  */
object IngestReference {

  private val answerOrder: Ordering[Answer] = (x, y) =>
    if (x.row != y.row) Integer.compare(x.row, y.row)
    else if (x.col != y.col) Integer.compare(x.col, y.col)
    else if (x.worker != y.worker) Integer.compare(x.worker, y.worker)
    else java.lang.Double.compare(x.value, y.value)

  /** The reference table of `answers`, sorted as `Model.answerTable` sorts them. */
  def table(columns: Seq[ColumnSpec], answers: Iterable[Answer]): Table =
    new Table(columns, answers.toArray.sorted(answerOrder))

  def continuousStats(columns: Seq[ColumnSpec], answers: Seq[Answer]): Map[Int, (Double, Double)] = {
    val contCols = columns.filter(_.isContinuous).map(_.col).toSet
    answers.filter(a => contCols(a.col)).groupBy(_.col).map { case (j, as) =>
      val m = new MathUtil.Moments
      as.map(_.value).sorted.foreach(v => m.add(v))
      j -> (m.meanX, math.max(math.sqrt(m.varX), 1e-9))
    }
  }

  def softmax(scores: Seq[Double]): Seq[Double] = {
    if (scores.isEmpty) return Seq.empty
    val m   = scores.max
    val exps = scores.map(s => math.exp(s - m))
    val z    = exps.sum
    exps.map(_ / z)
  }

  final class Table(val columns: Seq[ColumnSpec], val answers: Array[Answer]) {
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

    val stats: Map[Int, (Double, Double)] = continuousStats(columns, ArraySeq.unsafeWrapArray(answers))
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

    val cellLabels: Array[Int] = cellIds.map(c => labelsOf(c._2))
    def labels(k: Int): Int = cellLabels(cell(k))

    val catCells: Array[Int]    = cellIds.indices.filter(cellLabels(_) > 0).toArray
    val contCells: Array[Int]   = cellIds.indices.filter(cellLabels(_) == 0).toArray
    val catAnswers: Array[Int]  = (0 until size).filter(labels(_) > 0).toArray
    val contAnswers: Array[Int] = (0 until size).filter(labels(_) == 0).toArray

    def meanPer(ks: Seq[Int], key: Array[Int], n: Int)(x: Int => Double): Array[Double] = {
      val sum = new Array[Double](n)
      val cnt = new Array[Int](n)
      ks.foreach { k => sum(key(k)) += x(k); cnt(key(k)) += 1 }
      Array.tabulate(n)(i => if (cnt(i) == 0) 0.0 else sum(i) / cnt(i))
    }

    def labelPosteriors(q: Int => Double): Array[Array[Double]] = {
      val score = cellLabels.map(l => new Array[Double](l))
      for (k <- catAnswers) {
        val qk = q(k)
        score(cell(k))(value(k).toInt) += math.log(qk) - math.log((1.0 - qk) / (labels(k) - 1))
      }
      score.map(s => softmax(s.toSeq).toArray)
    }

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
  }

  def evaluate(t: Table, truth: Seq[TruthCell], estimates: Seq[TruthCell]): (Double, Double) = {
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
}
