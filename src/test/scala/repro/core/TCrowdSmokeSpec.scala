package repro.core

import repro.CrowdSpec
import repro.crowd._
import repro.metrics.Metrics
import repro.baselines.{MajorityVote, MedianBaseline}

/** End-to-end smoke: T-Crowd on a small mixed table recovers the truth
  * better than quality-blind aggregation.
  */
class TCrowdSmokeSpec extends CrowdSpec {

  private lazy val sim = new CrowdSim(SimConfig(
    name = "smoke",
    numRows = 40,
    columns = Seq(
      SimColumn("cat5", numLabels = 5),
      SimColumn("cat3", numLabels = 3),
      SimColumn("contA", 0, lo = 0, hi = 100),
      SimColumn("contB", 0, lo = -50, hi = 50),
    ),
    numWorkers = 20,
    answersPerTask = 5,
    seed = 99L,
  ))
  private lazy val ds = sim.dataset(spark)
  private lazy val res = TCrowd.infer(ds, TCrowdConfig(maxIters = 10, gdSteps = 4))

  test("inference terminates within the iteration budget") {
    assert(res.iterations <= 10)
  }

  test("produces an estimate for every cell") {
    assert(res.estimatesLocal.size == 40 * 4)
  }

  test("error rate beats majority voting") {
    val tc = Metrics.evaluate(ds, res.estimatesLocal)._1
    val mv = Metrics.evaluate(ds, MajorityVote.infer(ds))._1
    info(f"T-Crowd=$tc%.4f MV=$mv%.4f")
    assert(tc <= mv + 1e-9)
  }

  test("mnad beats median") {
    val tc = Metrics.evaluate(ds, res.estimatesLocal)._2
    val med = Metrics.evaluate(ds, MedianBaseline.infer(ds))._2
    info(f"T-Crowd=$tc%.4f Median=$med%.4f")
    assert(tc < med)
  }

  test("estimated worker quality correlates with simulated quality") {
    val est = res.table.workerIds.zip(res.phi).map { case (u, p) => u -> MathUtil.quality(TCrowd.Eps, p) }.toMap
    val actual = sim.workerPhi
    val common = est.keySet.intersect(actual.keySet).toSeq
    // higher phi (worse worker) -> lower estimated quality
    val m = new MathUtil.Moments
    common.foreach(u => m.add(math.log(actual(u)), est(u)))
    val corr = m.correlation
    info(f"corr(log true phi, est quality) = $corr%.3f")
    assert(corr < -0.5)
  }
}
