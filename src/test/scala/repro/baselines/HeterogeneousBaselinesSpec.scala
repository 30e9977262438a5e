package repro.baselines

import repro.CrowdSpec
import repro.core._
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import repro.metrics.Metrics

/** Heterogeneous-datatype baselines: CRH and CATD. */
class HeterogeneousBaselinesSpec extends CrowdSpec {

  private lazy val sim = new CrowdSim(SimConfig(
    name = "hetbench",
    numRows = 40,
    columns = Seq(
      SimColumn("c5", numLabels = 5),
      SimColumn("c3", numLabels = 3),
      SimColumn("x", 0, lo = 0, hi = 100),
      SimColumn("y", 0, lo = 0, hi = 1),
    ),
    numWorkers = 16,
    answersPerTask = 5,
    seed = 41L,
  ))
  private lazy val ds = sim.dataset(spark)
  private lazy val mvError = Metrics.evaluate(ds, MajorityVote.infer(ds))._1
  private lazy val medMnad = Metrics.evaluate(ds, MedianBaseline.infer(ds))._2

  test("CRH estimates every cell of both datatypes") {
    val est = Crh().infer(ds)
    assert(est.size == 40 * 4)
    assert(est.map(t => (t.row, t.col)).distinct.size == est.size)
  }

  test("CRH beats quality-blind baselines on both measures") {
    val est = Crh().infer(ds)
    val (er, mn) = Metrics.evaluate(ds, est)
    info(f"CRH error=$er%.4f mnad=$mn%.4f (MV=$mvError%.4f median=$medMnad%.4f)")
    assert(er <= mvError + 1e-9)
    assert(mn < medMnad)
  }

  test("CRH categorical labels stay in domain") {
    Crh().infer(ds).filter(_.col <= 1).foreach { t =>
      val l = if (t.col == 0) 5 else 3
      assert(t.value >= 0 && t.value < l)
    }
  }

  test("CRH worker weights favour accurate workers (via final estimates)") {
    // remove the best worker's answers -> estimates should get worse
    val best = sim.workerPhi.minBy(_._2)._1
    import org.apache.spark.sql.functions._
    val degraded = ds.copy(answers = ds.answers.filter(col("worker") =!= best))
    val full = Metrics.evaluate(ds, Crh().infer(ds))._2
    val less = Metrics.evaluate(degraded, Crh().infer(degraded))._2
    info(f"full=$full%.4f withoutBest=$less%.4f")
    assert(full <= less + 0.05)
  }

  test("CATD estimates every cell of both datatypes") {
    assert(Catd().infer(ds).size == 160)
  }

  test("CATD is competitive on both measures (paper: strong error rate, weaker MNAD)") {
    val est = Catd().infer(ds)
    val (er, mn) = Metrics.evaluate(ds, est)
    info(f"CATD error=$er%.4f mnad=$mn%.4f (MV=$mvError%.4f median=$medMnad%.4f)")
    // Table 7 shows CATD ahead of MV on error rate but at times behind
    // Median on MNAD; require the same qualitative envelope.
    assert(er <= mvError + 0.05)
    assert(mn < medMnad * 1.3)
  }

  test("CATD confidence weighting tempers low-support workers") {
    // per-answer weight chi2_{0.025}(n)/n is far smaller at n=1 than n=100
    val w1 = math.max(1e-3, MathUtil.chiSquareQuantile(0.025, 1))
    val w100 = MathUtil.chiSquareQuantile(0.025, 100)
    assert(w1 / 1.0 < w100 / 100.0)
  }

  test("CRH and CATD are deterministic") {
    assert(Crh().infer(ds).toSet == Crh().infer(ds).toSet)
    assert(Catd().infer(ds).toSet == Catd().infer(ds).toSet)
  }

  test("CRH works on categorical-only and continuous-only restrictions") {
    val t = ds.table
    val (catOnly, contOnly) = (t.restrictTo(_.isCategorical), t.restrictTo(_.isContinuous))
    assert(Crh().infer(catOnly).size == 80)
    assert(Crh().infer(contOnly).size == 80)
  }

  test("CATD works on categorical-only and continuous-only restrictions") {
    val t = ds.table
    val (catOnly, contOnly) = (t.restrictTo(_.isCategorical), t.restrictTo(_.isContinuous))
    assert(Catd().infer(catOnly).size == 80)
    assert(Catd().infer(contOnly).size == 80)
  }
}
