package repro.baselines

import repro.core._

/** Median (Table 7 "Median"): per continuous cell, the exact median of the
  * workers' raw answers, interpolated between the two middle answers of an
  * even count as Spark's `percentile(value, 0.5)` does. Robust to spammers
  * but worker-quality-blind.
  */
object MedianBaseline extends InferenceMethod {
  val name = "Median"

  def infer(t: AnswerTable): Seq[TruthCell] = {
    val raw = Array.fill(t.cellIds.length)(List.empty[Double])
    for (k <- t.contAnswers) raw(t.cell(k)) ::= t.answers(k).value
    t.contCells.toSeq.map { c =>
      val v = raw(c).sorted.toArray
      val pos = (v.length - 1) * 0.5
      val (lo, hi) = (pos.floor.toInt, pos.ceil.toInt)
      val (i, j) = t.cellIds(c)
      TruthCell(i, j, if (v(lo) == v(hi)) v(lo) else (hi - pos) * v(lo) + (pos - lo) * v(hi))
    }
  }
}
