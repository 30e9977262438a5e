package repro.core

/** The softmax and the metrics that the primitive loops of
  * [[MathUtil.softmax]] and `Metrics.evaluate` replaced, kept as the
  * definitions they must match bit for bit (`IngestProps`): a softmax over a
  * boxed `Seq`, and the two measures of paper §6.2 from a tuple-keyed
  * estimate map and a `groupBy` of the scored cells.
  */
object IngestReference {

  def softmax(scores: Seq[Double]): Seq[Double] = {
    if (scores.isEmpty) return Seq.empty
    val m   = scores.max
    val exps = scores.map(s => math.exp(s - m))
    val z    = exps.sum
    exps.map(_ / z)
  }

  def evaluate(t: AnswerTable, truth: Seq[TruthCell], estimates: Seq[TruthCell]): (Double, Double) = {
    val labelsOf = t.columns.map(c => c.col -> c.numLabels).toMap
    val est = estimates.map(e => (e.row, e.col) -> e.value).toMap
    def scored(categorical: Boolean): Seq[(TruthCell, Double)] =
      truth.filter(c => labelsOf.get(c.col).exists(l => (l > 0) == categorical))
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
