package repro.crowd

import repro.CrowdSpec
import repro.core._
import org.apache.spark.sql.functions._

class CrowdSimSpec extends CrowdSpec {

  private val cfg = SimConfig(
    name = "simtest",
    numRows = 30,
    columns = Seq(
      SimColumn("c4", numLabels = 4),
      SimColumn("x", 0, lo = 0, hi = 10),
    ),
    numWorkers = 12,
    answersPerTask = 4,
    seed = 123L,
  )
  private lazy val sim = new CrowdSim(cfg)

  test("columnSpecs mirror the config") {
    assert(sim.columnSpecs == Seq(ColumnSpec(0, "c4", 4), ColumnSpec(1, "x", 0)))
  }

  test("truth is deterministic") {
    val sim2 = new CrowdSim(cfg)
    for (i <- 0 until cfg.numRows; j <- cfg.columns.indices)
      assert(sim.truthOf(i, j) == sim2.truthOf(i, j))
  }

  test("answers are deterministic per (worker, cell)") {
    val sim2 = new CrowdSim(cfg)
    for (u <- 0 until 5; i <- 0 until 5; j <- cfg.columns.indices)
      assert(sim.answerFor(u, i, j) == sim2.answerFor(u, i, j))
  }

  test("categorical truth and answers stay in the label domain") {
    for (i <- 0 until cfg.numRows) {
      assert(sim.truthOf(i, 0) >= 0 && sim.truthOf(i, 0) < 4)
      for (u <- 0 until cfg.numWorkers) {
        val a = sim.answerFor(u, i, 0)
        assert(a >= 0 && a < 4 && a == math.floor(a))
      }
    }
  }

  test("continuous answers stay in the column domain") {
    for (i <- 0 until cfg.numRows; u <- 0 until cfg.numWorkers) {
      val a = sim.answerFor(u, i, 1)
      assert(a >= 0.0 && a <= 10.0)
    }
  }

  test("worker phis are positive and include a spammer tail") {
    assert(sim.workerPhi.values.forall(_ > 0))
    assert(sim.workerPhi.size == cfg.numWorkers)
  }

  test("row alphas are positive with median near 1") {
    val alphas = sim.rowAlpha.values.toSeq.sorted
    assert(alphas.forall(_ > 0))
    val median = alphas(alphas.size / 2)
    assert(median > 0.4 && median < 2.5)
  }

  test("each cell gets exactly answersPerTask distinct workers") {
    for (i <- 0 until cfg.numRows) {
      val ws = sim.workersFor(i)
      assert(ws.size == cfg.answersPerTask)
      assert(ws.distinct.size == ws.size)
      assert(ws.forall(u => u >= 0 && u < cfg.numWorkers))
    }
  }

  test("allAnswers covers every cell answersPerTask times") {
    val byCell = sim.allAnswers.groupBy(a => (a.row, a.col))
    assert(byCell.size == cfg.numRows * cfg.columns.size)
    assert(byCell.values.forall(_.size == cfg.answersPerTask))
  }

  test("participation is long-tailed (low-id workers answer more)") {
    val byWorker = sim.allAnswers.groupBy(_.worker).view.mapValues(_.size).toMap
    val lowIds  = (0 until 4).map(u => byWorker.getOrElse(u, 0)).sum
    val highIds = (8 until 12).map(u => byWorker.getOrElse(u, 0)).sum
    assert(lowIds > highIds)
  }

  test("a low-variance worker is more accurate than a high-variance one") {
    val best  = sim.workerPhi.minBy(_._2)._1
    val worst = sim.workerPhi.maxBy(_._2)._1
    def contAbsErr(u: Int): Double =
      (0 until cfg.numRows).map(i => math.abs(sim.answerFor(u, i, 1) - sim.truthOf(i, 1))).sum
    assert(contAbsErr(best) < contAbsErr(worst))
  }

  test("rowEffect is deterministic and positive") {
    assert(sim.rowEffect(3, 7) == new CrowdSim(cfg).rowEffect(3, 7))
    assert(sim.rowEffect(3, 7) > 0)
  }

  test("dataset materializes answers and truth") {
    val ds = sim.dataset(spark)
    assert(ds.answers.count() == cfg.numRows * cfg.columns.size * cfg.answersPerTask)
    assert(ds.truth.count() == cfg.numRows * cfg.columns.size)
    assert(ds.columns == sim.columnSpecs)
  }

  test("arrivalSequence cycles every worker once per round") {
    val arr = sim.arrivalSequence(3)
    assert(arr.size == 3 * cfg.numWorkers)
    arr.grouped(cfg.numWorkers).foreach(round => assert(round.sorted == (0 until cfg.numWorkers)))
  }

  test("addNoise with gamma=0 leaves answers unchanged") {
    val ds = sim.dataset(spark)
    val noisy = CrowdSim.addNoise(ds, ds.table.stats, 0.0, seed = 5L)
    assert(noisy.answers.except(ds.answers).count() == 0)
  }

  test("addNoise with gamma=1 perturbs most answers but keeps domains") {
    val ds = sim.dataset(spark)
    val noisy = CrowdSim.addNoise(ds, ds.table.stats, 1.0, seed = 5L)
    assert(noisy.answers.count() == ds.answers.count())
    // categorical answers remain valid labels
    val badCat = noisy.answers
      .filter(col("col") === 0)
      .filter(col("value") < 0 || col("value") >= 4 || col("value") =!= floor(col("value")))
      .count()
    assert(badCat == 0)
    // a large fraction of answers actually changed
    val changed = noisy.answers.except(ds.answers).count()
    assert(changed > ds.answers.count() / 2)
  }

  test("addNoise keeps the answer count per cell") {
    val ds = sim.dataset(spark)
    val noisy = CrowdSim.addNoise(ds, ds.table.stats, 0.3, seed = 6L)
    val a = noisy.answers.groupBy("row", "col").count()
    assert(a.filter(col("count") =!= cfg.answersPerTask).count() == 0)
  }

  test("addNoise's dataset collects its own, noisy answers, not the base's") {
    val ds = sim.dataset(spark)
    val noisy = CrowdSim.addNoise(ds, ds.table.stats, 1.0, seed = 5L)
    val collected = noisy.answers.collect().map(r => Answer(r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3))).toSet
    assert(noisy.table.answers.toSet == collected)
    assert(noisy.table.answers.toSet != ds.table.answers.toSet)
  }

  test("addNoise is a lazy transform: it issues no Spark job") {
    val ds = sim.dataset(spark)
    val stats = ds.table.stats
    assert(jobsOf(CrowdSim.addNoise(ds, stats, 0.3, seed = 6L)) == 0)
  }

  test("config validation rejects too few workers") {
    intercept[IllegalArgumentException] {
      SimConfig("bad", 5, Seq(SimColumn("a", 2)), numWorkers = 2, answersPerTask = 3)
    }
  }
}
