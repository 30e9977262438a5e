package repro.experiments

import repro.CrowdSpec
import repro.core.{Answer, Model, TruthCell}
import repro.crowd.{CrowdSim, Surrogates}
import repro.experiments.Experiments.Score

class ExperimentsSpec extends CrowdSpec {

  test("sweepConfig builds M columns with the requested categorical ratio") {
    val cfg = Experiments.sweepConfig(m = 10, r = 0.3, difficulty = 2.0)
    assert(cfg.columns.size == 10)
    assert(cfg.columns.count(_.isCategorical) == 3)
    assert(cfg.difficultyScale == 2.0)
    // §6.5.1: label counts in U(2,10)'s support, continuous domain [0,1000]
    cfg.columns.filter(_.isCategorical).foreach(c => assert(c.numLabels >= 2 && c.numLabels <= 10))
    cfg.columns.filterNot(_.isCategorical).foreach(c => assert(c.lo == 0 && c.hi == 1000))
  }

  test("sweepConfig corners: all-continuous and all-categorical") {
    assert(Experiments.sweepConfig(8, 0.0, 1.0).columns.count(_.isCategorical) == 0)
    assert(Experiments.sweepConfig(8, 1.0, 1.0).columns.count(_.isCategorical) == 8)
  }

  test("onlineConfig shrinks the Restaurant surrogate but keeps its schema") {
    val cfg = Experiments.onlineConfig(rows = 20)
    assert(cfg.numRows == 20)
    assert(cfg.columns.map(_.name) ==
      Seq("aspect", "attribute", "sentiment", "startTarget", "endTarget"))
  }

  test("renderTable7 places every method row and slots NaN as '/'") {
    val scores = Seq(
      Score("T-Crowd", "Celebrity", 0.05, 0.6),
      Score("Maj. Voting", "Celebrity", 0.06, Double.NaN),
      Score("Median", "Emotion", Double.NaN, 0.7),
    )
    val t = Experiments.renderTable7(scores)
    assert(t.contains("T-Crowd"))
    assert(t.contains("0.0500"))
    assert(t.contains("/"))
    assert(t.linesIterator.count(_.startsWith("|")) >= 11)
  }

  test("renderSweep and renderTraces produce aligned tables") {
    val sweep = Experiments.renderSweep("T", Seq("S" -> Seq(Score("CRH", "d", 0.1, 0.2))))
    assert(sweep.contains("CRH") && sweep.contains("0.1000"))
    val traces = Experiments.renderTraces("T",
      Map("X" -> Seq(repro.core.SimPoint(1.0, 0.1, 0.2))))
    assert(traces.contains("X") && traces.contains("1.00"))
  }

  test("writeReport persists under the results dir") {
    val tmp = java.nio.file.Files.createTempDirectory("repro-results")
    System.setProperty("repro.results.dir", tmp.toString)
    try {
      Experiments.writeReport("unit.txt", "hello")
      assert(new String(java.nio.file.Files.readAllBytes(tmp.resolve("unit.txt"))) == "hello")
    } finally System.clearProperty("repro.results.dir")
  }

  test("table6 stats carry through the harness") {
    val (stats, rendered) = Experiments.table6
    assert(stats.map(_._1) == Seq("Celebrity", "Restaurant", "Emotion"))
    assert(rendered.linesIterator.size >= 6)
  }

  test("heterogeneous/categorical/continuous method groups match Table 7's rows") {
    val cfg = Experiments.benchCfg
    assert(Experiments.heterogeneousMethods(cfg).map(_.name) == Seq("T-Crowd", "CRH", "CATD"))
    assert(Experiments.categoricalMethods(cfg).map(_.name) ==
      Seq("Maj. Voting", "EM", "GLAD", "Zencrowd", "TC-onlyCate"))
    assert(Experiments.continuousMethods(cfg).map(_.name) == Seq("Median", "GTM", "TC-onlyCont"))
    val rows = Experiments.renderTable7(Seq.empty).linesIterator.drop(4).map(_.split('|')(1).trim).toSeq
    assert(rows == Seq("T-Crowd", "CRH", "CATD", "Maj. Voting", "EM", "GLAD", "Zencrowd",
      "TC-onlyCate", "Median", "GTM", "TC-onlyCont"))
  }

  // reversed worker ids, reversed row ids, and x -> 3.7x - 20 on each continuous column
  test("every Table 7 method is invariant to reversed ids and affine columns") {
    val cfg = Experiments.benchCfg
    val methods = Experiments.heterogeneousMethods(cfg) ++ Experiments.categoricalMethods(cfg) ++
      Experiments.continuousMethods(cfg)
    var (cells, gap) = (0, 0.0)
    for (sc <- Seq(Surrogates.celebrityConfig(), Surrogates.restaurantConfig(), Surrogates.emotionConfig())) {
      val sim = new CrowdSim(sc)
      val (cols, answers) = (sim.columnSpecs, sim.allAnswers)
      val cont = sim.columnSpecs.filter(_.isContinuous).map(_.col).toSet
      val (lastWorker, lastRow) = (answers.map(_.worker).max, answers.map(_.row).max)
      def affine(col: Int, v: Double): Double = if (cont(col)) 3.7 * v - 20 else v
      // each map of the answers, and where it takes an estimate
      val maps: Seq[(String, Answer => Answer, TruthCell => TruthCell)] = Seq(
        ("reversed worker ids", a => a.copy(worker = lastWorker - a.worker), c => c),
        ("reversed row ids", a => a.copy(row = lastRow - a.row), c => c.copy(row = lastRow - c.row)),
        ("x -> 3.7x - 20", a => a.copy(value = affine(a.col, a.value)), c => c.copy(value = affine(c.col, c.value))))
      val t = Model.answerTable(cols, answers)
      for (m <- methods; base = m.infer(t); (name, f, g) <- maps) {
        val got = m.infer(Model.answerTable(cols, answers.map(f))).map(c => (c.row, c.col) -> c.value).toMap
        val at = s"${m.name} on ${sc.name} under $name"
        assert(got.size == base.size, at)
        for (w <- base.map(g); v = got((w.row, w.col))) {
          cells += 1
          if (cont(w.col)) {
            // relative to the larger estimate, or absolute below 1: an estimate of 0 may come out at 1e-14
            val rel = math.abs(v - w.value) / math.max(1.0, math.max(math.abs(v), math.abs(w.value)))
            gap = math.max(gap, rel)
            assert(rel <= 1e-12, s"$at: cell (${w.row}, ${w.col}) $v vs ${w.value}")
          } else assert(v == w.value, s"$at: cell (${w.row}, ${w.col}) label $v vs ${w.value}")
        }
      }
    }
    info(s"$cells estimates compared; largest gap of a continuous one $gap")
  }
}
