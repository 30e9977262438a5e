package repro.baselines

import repro.CrowdSpec
import repro.core._
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import repro.metrics.Metrics

/** EM-style categorical baselines: Dawid&Skene ("EM"), ZenCrowd, GLAD. */
class CategoricalBaselinesSpec extends CrowdSpec {

  private lazy val sim = new CrowdSim(SimConfig(
    name = "catbench",
    numRows = 40,
    columns = Seq(SimColumn("a", numLabels = 4), SimColumn("b", numLabels = 3)),
    numWorkers = 15,
    answersPerTask = 5,
    seed = 31L,
  ))
  private lazy val ds = sim.dataset(spark)
  private lazy val mvError = Metrics.evaluate(ds, MajorityVote.infer(ds))._1

  // A tiny instance where one consistently-right worker faces two noisy
  // workers whose wrong answers scatter (4 labels, so wrong answers do not
  // coincide); quality-aware EM should learn to trust the reliable worker.
  private def adversarialDs: CrowdDataset = {
    val cols = Seq(ColumnSpec(0, "c", 4))
    val rows = 12
    val truth = (0 until rows).map(i => TruthCell(i, 0, (i % 4).toDouble))
    val answers = (0 until rows).flatMap { i =>
      val t = i % 4
      // good worker always right; bad workers right only on the first 4 rows,
      // and wrong with *different* labels elsewhere
      val b1 = if (i < 4) t else (t + 1) % 4
      val b2 = if (i < 4) t else (t + 2) % 4
      Seq(Answer(0, i, 0, t.toDouble), Answer(1, i, 0, b1.toDouble), Answer(2, i, 0, b2.toDouble))
    }
    CrowdDataset("adv", Model.answersDf(spark, answers), cols, Model.truthDf(spark, truth))
  }

  test("DawidSkene achieves a reasonable error rate") {
    val er = Metrics.evaluate(ds, DawidSkene().infer(ds))._1
    info(f"D&S error=$er%.4f (MV=$mvError%.4f)")
    assert(er < 0.5)
  }

  test("DawidSkene estimates every categorical cell exactly once") {
    val est = DawidSkene().infer(ds)
    assert(est.size == 40 * 2)
    assert(est.map(t => (t.row, t.col)).distinct.size == est.size)
  }

  test("DawidSkene labels are within the column domain") {
    DawidSkene().infer(ds).foreach { t =>
      val l = if (t.col == 0) 4 else 3
      assert(t.value >= 0 && t.value < l)
    }
  }

  test("DawidSkene returns empty for continuous-only data") {
    val contOnly = Model.answerTable(Seq(ColumnSpec(0, "x", 0)), Seq.empty)
    assert(DawidSkene().infer(contOnly).isEmpty)
  }

  test("ZenCrowd achieves a reasonable error rate") {
    val er = Metrics.evaluate(ds, ZenCrowd().infer(ds))._1
    info(f"ZenCrowd error=$er%.4f (MV=$mvError%.4f)")
    assert(er <= mvError + 0.05)
  }

  test("ZenCrowd outvotes coordinated low-quality workers") {
    val er = Metrics.evaluate(adversarialDs, ZenCrowd(iters = 20).infer(adversarialDs))._1
    info(f"ZenCrowd adversarial error=$er%.4f")
    assert(er < 0.5)
  }

  test("ZenCrowd estimates all cells with in-domain labels") {
    val est = ZenCrowd().infer(ds)
    assert(est.size == 80)
    est.foreach { t =>
      val l = if (t.col == 0) 4 else 3
      assert(t.value >= 0 && t.value < l)
    }
  }

  test("GLAD achieves a reasonable error rate") {
    val er = Metrics.evaluate(ds, Glad().infer(ds))._1
    info(f"GLAD error=$er%.4f (MV=$mvError%.4f)")
    assert(er <= mvError + 0.05)
  }

  test("GLAD estimates all cells") {
    assert(Glad().infer(ds).size == 80)
  }

  test("GLAD returns empty for continuous-only data") {
    val contOnly = Model.answerTable(Seq(ColumnSpec(0, "x", 0)), Seq.empty)
    assert(Glad().infer(contOnly).isEmpty)
  }

  test("all categorical baselines are deterministic") {
    assert(DawidSkene().infer(ds).toSet == DawidSkene().infer(ds).toSet)
    assert(ZenCrowd().infer(ds).toSet == ZenCrowd().infer(ds).toSet)
    assert(Glad().infer(ds).toSet == Glad().infer(ds).toSet)
  }
}
