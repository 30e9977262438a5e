package repro.baselines

import repro.CrowdSpec
import repro.core._
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import repro.metrics.Metrics

/** Continuous-only baseline: GTM (Gaussian truth model). */
class ContinuousBaselinesSpec extends CrowdSpec {

  private lazy val sim = new CrowdSim(SimConfig(
    name = "contbench",
    numRows = 40,
    columns = Seq(SimColumn("x", 0, lo = 0, hi = 100), SimColumn("y", 0, lo = -10, hi = 10)),
    numWorkers = 15,
    answersPerTask = 5,
    seed = 37L,
  ))
  private lazy val ds = sim.dataset(spark)

  test("GTM estimates every continuous cell") {
    assert(Gtm().infer(ds).size == 80)
  }

  test("GTM beats the plain mean on spammer-heavy data") {
    // mean = GTM with zero iterations of quality learning; compare to Median
    val gtm = Metrics.evaluate(ds, Gtm().infer(ds))._2
    val med = Metrics.evaluate(ds, MedianBaseline.infer(ds))._2
    info(f"GTM=$gtm%.4f Median=$med%.4f")
    assert(gtm < med)
  }

  test("GTM recovers near-exact truth when one worker is noiseless") {
    val cols = Seq(ColumnSpec(0, "x", 0))
    val rows = 20
    val truth = (0 until rows).map(i => TruthCell(i, 0, i * 2.0))
    val r = new scala.util.Random(3)
    val answers = (0 until rows).flatMap { i =>
      Seq(
        Answer(0, i, 0, i * 2.0),                            // oracle worker
        Answer(1, i, 0, i * 2.0 + r.nextGaussian() * 8),     // noisy
        Answer(2, i, 0, i * 2.0 + r.nextGaussian() * 8),     // noisy
      )
    }
    val d = CrowdDataset("oracleW", Model.answersDf(spark, answers), cols,
      Model.truthDf(spark, truth))
    val mnad = Metrics.evaluate(d, Gtm(iters = 15).infer(d))._2
    val mean = Metrics.evaluate(d,
      d.answers.groupBy("row", "col").agg(org.apache.spark.sql.functions.avg("value").as("est"))
        .collect().map(x => TruthCell(x.getInt(0), x.getInt(1), x.getDouble(2))).toSeq)._2
    info(f"GTM=$mnad%.4f mean=$mean%.4f")
    assert(mnad < mean * 0.6)
  }

  test("GTM returns empty for categorical-only data") {
    val catOnly = CrowdDataset("c",
      Model.answersDf(spark, Seq(Answer(0, 0, 0, 1.0))),
      Seq(ColumnSpec(0, "c", 3)),
      Model.truthDf(spark, Seq(TruthCell(0, 0, 1.0))))
    assert(Gtm().infer(catOnly).isEmpty)
  }

  test("GTM is deterministic") {
    assert(Gtm().infer(ds).toSet == Gtm().infer(ds).toSet)
  }

  test("GTM estimates are within a sane range of the domain") {
    Gtm().infer(ds).foreach { t =>
      if (t.col == 0) assert(t.value > -50 && t.value < 150)
      else assert(t.value > -20 && t.value < 20)
    }
  }
}
