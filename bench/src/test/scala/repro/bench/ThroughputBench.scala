package repro.bench

import repro.CrowdSpec
import repro.experiments.Experiments

/** Reproduces §6.6 (Figure 12b, as a table): truth-inference throughput in
  * answers/second at growing answer-set sizes. The paper's claim is that
  * runtime is linear in |A| (~100 answers/s in their Python prototype). The
  * timed EM runs on an already collected answer table, so no fixed Spark
  * cost is in the clock; the linear-cost claim shows up as non-collapsing
  * throughput at the largest size.
  */
class ThroughputBench extends CrowdSpec {

  private lazy val (points, rendered) = Experiments.throughput(spark, Seq(2000, 8000, 32000))

  test("Figure 12b table renders and is archived") {
    println(rendered)
    Experiments.writeReport("fig12b_throughput.txt", rendered)
    assert(points.size == 3)
  }

  test("throughput is positive at all sizes") {
    points.foreach { case (_, rate) => assert(rate > 0) }
  }

  test("per-answer cost does not blow up with |A| (linear-cost claim)") {
    val rateSmall = points.head._2
    val rateLarge = points.last._2
    assert(rateLarge >= rateSmall * 0.5,
      f"throughput collapsed: $rateSmall%.0f -> $rateLarge%.0f answers/s")
  }
}
