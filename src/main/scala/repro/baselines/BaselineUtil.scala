package repro.baselines

import repro.core._

/** The truth update and loss that Majority Voting, CRH and CATD share, as
  * loops over the collected [[AnswerTable]]. Like T-Crowd (DESIGN.md §6),
  * every baseline reads the table's z-normalized answers, so a single
  * per-worker weight or variance is meaningful across columns of different
  * scales, and maps its estimates back to raw scale on output
  * ([[AnswerTable.estimate]]).
  */
object BaselineUtil {

  /** Truth update under per-worker weights `w` (indexed by dense worker):
    * per categorical cell the answered label with the largest total weight
    * (ties to the smallest label), per continuous cell the weighted mean of
    * the normalized answers. Returns one estimate per cell of the table.
    */
  def weightedTruth(t: AnswerTable, w: Array[Double]): Array[Double] = {
    val votes = t.cellLabels.map(l => Array.fill(l)(Double.NaN)) // NaN: label not answered
    val sw, swv = new Array[Double](t.cellIds.length)
    for (k <- 0 until t.size) {
      val c = t.cell(k)
      val wk = w(t.worker(k))
      if (t.labels(k) > 0) {
        val v = votes(c); val z = t.value(k).toInt
        v(z) = if (v(z).isNaN) wk else v(z) + wk
      } else { sw(c) += wk; swv(c) += wk * t.value(k) }
    }
    Array.tabulate(t.cellIds.length) { c =>
      if (t.cellLabels(c) == 0) swv(c) / math.max(sw(c), 1e-12)
      else votes(c).indices.filterNot(z => votes(c)(z).isNaN).maxBy(z => (votes(c)(z), -z)).toDouble
    }
  }

  /** Each worker's total loss against the per-cell estimates `est`: 0/1 on
    * categorical cells, squared error on normalized continuous cells.
    */
  def workerLoss(t: AnswerTable, est: Array[Double]): Array[Double] = {
    val d = new Array[Double](t.workerIds.length)
    for (k <- 0 until t.size) {
      val e = est(t.cell(k))
      d(t.worker(k)) +=
        (if (t.labels(k) > 0) { if (e == t.value(k)) 0.0 else 1.0 }
         else { val x = t.value(k) - e; x * x })
    }
    d
  }
}
