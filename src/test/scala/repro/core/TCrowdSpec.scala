package repro.core

import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import repro.metrics.Metrics

/** Detailed behaviour of the T-Crowd EM algorithm (paper §4). */
class TCrowdSpec extends CrowdSpec {

  private lazy val sim = new CrowdSim(SimConfig(
    name = "tcrowd",
    numRows = 40,
    columns = Seq(
      SimColumn("cat6", numLabels = 6),
      SimColumn("cat3", numLabels = 3),
      SimColumn("u", 0, lo = 0, hi = 1000),
      SimColumn("v", 0, lo = -5, hi = 5),
    ),
    numWorkers = 18,
    answersPerTask = 5,
    seed = 77L,
  ))
  private lazy val ds = sim.dataset(spark)
  private lazy val res = TCrowd.infer(ds, TCrowdConfig(maxIters = 10, gdSteps = 4))

  test("categorical posteriors are distributions over the full label set") {
    res.catPosterior.foreach { case ((_, j), p) =>
      val l = if (j == 0) 6 else 3
      assert(p.length == l)
      assert(math.abs(p.sum - 1.0) < 1e-9)
      assert(p.forall(x => x >= 0 && x <= 1))
    }
  }

  test("continuous posteriors have positive variance") {
    res.contPosterior.values.foreach { case (_, tphi) => assert(tphi > 0) }
  }

  test("worker qualities are probabilities") {
    res.workerQuality.values.foreach(q => assert(q > 0 && q < 1))
  }

  test("row and column difficulties are positive with geometric mean 1") {
    assert(res.alpha.values.forall(_ > 0))
    assert(res.beta.values.forall(_ > 0))
    val ga = res.alpha.values.map(math.log).sum / res.alpha.size
    val gb = res.beta.values.map(math.log).sum / res.beta.size
    assert(math.abs(ga) < 1e-6)
    assert(math.abs(gb) < 1e-6)
  }

  test("cellVariance is the alpha*beta*phi product") {
    val u = res.phi.keys.head
    val i = res.alpha.keys.head
    val j = res.beta.keys.head
    val expected = res.alpha(i) * res.beta(j) * res.phi(u)
    assert(math.abs(res.cellVariance(u, i, j) - expected) < 1e-12)
  }

  test("cellQuality decreases with row difficulty") {
    val u = res.phi.keys.head
    val j = res.beta.keys.head
    val easy = res.alpha.minBy(_._2)._1
    val hard = res.alpha.maxBy(_._2)._1
    assert(res.cellQuality(u, easy, j) >= res.cellQuality(u, hard, j))
  }

  test("estimates cover all cells once") {
    val keys = res.estimatesLocal.map(t => (t.row, t.col))
    assert(keys.size == 160)
    assert(keys.distinct.size == 160)
  }

  test("categorical estimates stay in label domain") {
    res.estimatesLocal.filter(_.col <= 1).foreach { t =>
      val l = if (t.col == 0) 6 else 3
      assert(t.value >= 0 && t.value < l)
    }
  }

  test("continuous estimates are denormalized back to the raw scale") {
    val colU = res.estimatesLocal.filter(_.col == 2).map(_.value)
    // domain is [0, 1000]; z-space values would be ~N(0,1)
    assert(colU.max > 50.0)
  }

  test("estimated row difficulty correlates with simulated difficulty") {
    val common = res.alpha.keySet.intersect(sim.rowAlpha.keySet).toSeq
    val m = new MathUtil.Moments
    common.foreach(i => m.add(math.log(sim.rowAlpha(i)), math.log(res.alpha(i))))
    val c = m.correlation
    info(f"corr(log true alpha, log est alpha) = $c%.3f")
    assert(c > 0.2)
  }

  test("inference is deterministic") {
    val res2 = TCrowd.infer(ds, TCrowdConfig(maxIters = 10, gdSteps = 4))
    assert(res.estimatesLocal.toSet == res2.estimatesLocal.toSet)
    assert(res.phi == res2.phi)
  }

  test("onlyCate restriction estimates only categorical cells") {
    val r = TCrowd.inferOnlyCategorical(ds, TCrowdConfig(maxIters = 6, gdSteps = 3))
    assert(r.estimatesLocal.size == 80)
    assert(r.estimatesLocal.forall(_.col <= 1))
  }

  test("onlyCont restriction estimates only continuous cells") {
    val r = TCrowd.inferOnlyContinuous(ds, TCrowdConfig(maxIters = 6, gdSteps = 3))
    assert(r.estimatesLocal.size == 80)
    assert(r.estimatesLocal.forall(_.col >= 2))
  }

  test("full T-Crowd is at least as good as its restricted variants") {
    val cfg = TCrowdConfig(maxIters = 10, gdSteps = 4)
    val full = res
    val cate = TCrowd.inferOnlyCategorical(ds, cfg)
    val cont = TCrowd.inferOnlyContinuous(ds, cfg)
    val erFull = Metrics.errorRate(ds, full.estimatesLocal)
    val erCate = Metrics.errorRate(ds, cate.estimatesLocal)
    val mnFull = Metrics.mnad(ds, full.estimatesLocal)
    val mnCont = Metrics.mnad(ds, cont.estimatesLocal)
    info(f"error full=$erFull%.4f onlyCate=$erCate%.4f; mnad full=$mnFull%.4f onlyCont=$mnCont%.4f")
    // unified quality transfers knowledge across datatypes (paper Table 7)
    assert(erFull <= erCate + 0.02)
    assert(mnFull <= mnCont + 0.02)
  }

  test("more answers per task tighten the continuous posteriors") {
    val simDense = new CrowdSim(sim.cfg.copy(answersPerTask = 10, name = "dense"))
    val dense = TCrowd.infer(simDense.dataset(spark), TCrowdConfig(maxIters = 6, gdSteps = 3))
    val sparse = TCrowd.infer(
      new CrowdSim(sim.cfg.copy(answersPerTask = 2, name = "sparse")).dataset(spark),
      TCrowdConfig(maxIters = 6, gdSteps = 3))
    def avgVar(r: TCrowdResult) = r.contPosterior.values.map(_._2).sum / r.contPosterior.size
    info(f"avg posterior var: dense=${avgVar(dense)}%.4f sparse=${avgVar(sparse)}%.4f")
    assert(avgVar(dense) < avgVar(sparse))
  }

  test("works on a dataset with a single answer per cell") {
    val tiny = new CrowdSim(SimConfig("single", 10,
      Seq(SimColumn("c", numLabels = 3), SimColumn("x", 0, 0, 10)),
      numWorkers = 5, answersPerTask = 1, seed = 3L)).dataset(spark)
    val r = TCrowd.infer(tiny, TCrowdConfig(maxIters = 4, gdSteps = 2))
    assert(r.estimatesLocal.size == 20)
  }

  test("iteration count respects maxIters") {
    val r = TCrowd.infer(ds, TCrowdConfig(maxIters = 3, gdSteps = 2))
    assert(r.iterations <= 3)
  }
}
