package repro.core

import org.apache.spark.sql.Row
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import repro.experiments.Experiments
import repro.metrics.Metrics
import repro.perfbench.JobAttribution
import scala.collection.mutable
import scala.util.Random

/** The driver-side T-Crowd kernel against [[TCrowdOracle]], the EM of
  * paper Eq. 3–5 over maps, on fixed and on generated tables, and its
  * independence from how the answer relation is partitioned and ordered.
  */
class TCrowdKernelSpec extends CrowdSpec {

  private val cfg = TCrowdConfig(maxIters = 12, gdSteps = 3)

  private def sim(name: String, columns: Seq[SimColumn], workers: Int, perTask: Int, seed: Long = 5L): CrowdSim =
    new CrowdSim(SimConfig(name, 24, columns, workers, perTask, seed))
  private def tableOf(s: CrowdSim): AnswerTable = Model.answerTable(s.columnSpecs, s.allAnswers)

  private val mixedCols = Seq(SimColumn("c3", 3), SimColumn("c6", 6),
                              SimColumn("x", 0, 0, 100), SimColumn("y", 0, -5, 5))
  private val mixedSim = sim("mixed", mixedCols, workers = 12, perTask = 4)
  private lazy val mixed = mixedSim.dataset(spark)

  /** `answers` on the mixed columns that satisfy `keep`. */
  private def mixedTable(keep: ColumnSpec => Boolean = _ => true, answers: Seq[Answer] = mixedSim.allAnswers): AnswerTable = {
    val cols = mixedSim.columnSpecs.filter(keep)
    Model.answerTable(cols, answers.filter(a => cols.exists(_.col == a.col)))
  }

  private val runs: Seq[(String, () => AnswerTable, TCrowdConfig)] = Seq(
    ("mixed columns", () => mixedTable(), cfg),
    ("only-categorical columns", () => mixedTable(_.isCategorical), cfg),
    ("only-continuous columns", () => mixedTable(_.isContinuous), cfg),
    ("a single worker", () => tableOf(sim("one-worker", mixedCols, workers = 1, perTask = 1)), cfg),
    ("single-answer cells", () => tableOf(sim("single", mixedCols, workers = 6, perTask = 1, seed = 9L)), cfg),
    ("a constant continuous column", () => mixedTable(answers =
      mixedSim.allAnswers.map(a => if (a.col == 2) a.copy(value = 7.0) else a)), cfg),
    ("a 40-label column", () => tableOf(sim("forty",
      Seq(SimColumn("c40", 40), SimColumn("c2", 2), SimColumn("x", 0, 0, 10)), workers = 10, perTask = 5)), cfg),
    ("a schema column with no answers", () => mixedTable(answers = mixedSim.allAnswers.filter(_.col != 3)), cfg),
    // the mixed columns once more, with the iteration budget to converge
    ("mixed columns, run to convergence", () => mixedTable(), TCrowdConfig(maxIters = 40, gdSteps = 5)),
  )

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(a))

  /** Every posterior and parameter of the oracle's run, keyed by what it is and its ids. */
  private def values(r: TCrowdOracle.Run): Map[(String, Any), Double] = (
    r.post.cont.toSeq.flatMap { case (c, (mu, v)) => Seq(("mu", c) -> mu, ("var", c) -> v) } ++
      r.post.cat.toSeq.flatMap { case (c, p) => p.indices.map(z => ("post", (c, z)) -> p(z)) } ++
      Seq("phi" -> r.p.lnPhi, "alpha" -> r.p.lnAlpha, "beta" -> r.p.lnBeta)
        .flatMap { case (n, m) => m.map { case (k, v) => (n, k) -> math.exp(v) } }).toMap

  /** The same of the kernel's result, its arrays keyed through the table's id arrays. */
  private def values(r: TCrowdResult): Map[(String, Any), Double] = {
    val t = r.table
    (t.contCells.toSeq.flatMap(c => Seq(("mu", t.cellIds(c)) -> r.mu(c), ("var", t.cellIds(c)) -> r.tphi(c))) ++
      t.catCells.toSeq.flatMap(c => r.post(c).indices.map(z => ("post", (t.cellIds(c), z)) -> r.post(c)(z))) ++
      Seq(("phi", t.workerIds, r.phi), ("alpha", t.rowIds, r.alpha), ("beta", t.colIds, r.beta))
        .flatMap { case (n, ids, v) => ids.indices.map(x => (n, ids(x)) -> v(x)) }).toMap
  }

  /** Where the kernel's run on `t` and the oracle's differ, the kernel's
    * run, and the oracle's Q before and after each M-step.
    */
  private def compare(t: AnswerTable, cfg: TCrowdConfig): (Seq[String], TCrowdResult, Seq[(Double, Double)]) = {
    val got = TCrowd.infer(t, cfg)
    val (ref, qs) = new TCrowdOracle(t).run(cfg)
    val (g, r) = (values(got), values(ref))
    val diffs = Option.when((got.iterations, got.converged) != ((ref.iterations, ref.converged)))(
        s"kernel ${got.iterations} iterations, converged=${got.converged}; oracle ${ref.iterations}, ${ref.converged}") ++
      Option.when(g.keySet != r.keySet)(s"keys ${g.keySet.diff(r.keySet)} vs ${r.keySet.diff(g.keySet)}") ++
      g.collect { case (k, v) if r.contains(k) && !close(v, r(k)) => s"$k: kernel $v vs oracle ${r(k)}" }
    (diffs.toSeq, got, qs)
  }

  for ((name, mk, cfg) <- runs) {
    test(s"kernel agrees with TCrowdOracle to 1e-9 on $name") {
      val (diffs, got, qs) = compare(mk(), cfg)
      val rises = qs.map { case (before, after) => after - before }
      info(s"${got.iterations} iterations, converged=${got.converged}, smallest rise of Q ${rises.min}")
      assert(diffs.isEmpty, s"$name: ${diffs.take(5).mkString("; ")}")
      assert(rises.forall(_ >= 0), s"$name: Q falls across an M-step: ${rises.mkString(", ")}")
    }
  }

  /** A small mixed table ([[IngestProps.goodRelation]]) and an EM budget. Each with probability
    * 1/4: one worker gives every answer, every continuous answer is 1.5, a
    * 40-label column is answered, a schema column has no answers.
    */
  private val generated: Gen[(AnswerTable, TCrowdConfig)] = for {
    (cols, answers) <- IngestProps.goodRelation
    Seq(oneWorker, constant, forty, unanswered) <- Gen.listOfN(4, Gen.prob(0.25))
    labels   <- Gen.listOfN(answers.size, Gen.choose(0, 39))
    maxIters <- Gen.choose(1, 15)
    gdSteps  <- Gen.choose(1, 5)
  } yield {
    var as = if (oneWorker) answers.map(_.copy(worker = 3)).distinctBy(a => (a.row, a.col)) else answers
    if (constant) as = as.map(a => if (cols.exists(c => c.col == a.col && c.isContinuous)) a.copy(value = 1.5) else a)
    if (forty) as ++= as.map(a => (a.worker, a.row)).distinct.zip(labels).map { case ((u, i), z) => Answer(u, i, 60, z) }
    val schema = cols ++ Option.when(forty)(ColumnSpec(60, "c60", 40)) ++ Option.when(unanswered)(ColumnSpec(61, "c61", 0))
    (Model.answerTable(schema, as), TCrowdConfig(maxIters, gdSteps))
  }

  test("the kernel agrees with TCrowdOracle to 1e-9 on generated mixed tables") {
    val seen = mutable.Map.empty[String, Int].withDefaultValue(0)
    val falls = mutable.Buffer.empty[String]
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), Prop.forAllNoShrink(generated) { case (t, cfg) =>
      val perCol = t.answers.groupBy(_.col).map { case (j, as) => (t.colLabels(t.colPos(j)), as) }
      for ((f, true) <- Seq("single-answer cells" -> t.cell.groupBy(identity).exists(_._2.length == 1),
        "one worker" -> (t.workerIds.length == 1), "a 40-label column" -> perCol.exists(_._1 == 40),
        "a constant continuous column" -> perCol.exists { case (l, as) => l == 0 && as.length > 1 && as.forall(_.value == as(0).value) },
        "a schema column without answers" -> (perCol.size < t.colIds.length))) seen(f) += 1
      val (diffs, _, qs) = compare(t, cfg)
      val fell = qs.zipWithIndex.collect { case ((b, a), m) if a < b && !close(a, b) => s"${b - a} at M-step ${m + 1}" }
      if (fell.nonEmpty) falls += s"Q falls by ${fell.mkString(", ")} of $cfg on ${t.columns}: ${t.answers.mkString(" ")}"
      diffs.isEmpty :| s"${diffs.take(5).mkString("; ")} under $cfg on ${t.columns}: ${t.answers.mkString(" ")}"
    })
    info(s"${res.succeeded} tables; ${seen.toSeq.sorted.map { case (f, n) => s"$n with $f" }.mkString(", ")}")
    // a fixed Lr and the clamps do not make Q rise: a fall beyond 1e-9 is reported, not asserted
    info(s"Q falls across an M-step on ${falls.size} tables")
    falls.take(3).foreach(info(_))
    assert(res.passed, res.status)
    assert(seen.size == 5, s"generated tables cover ${seen.keySet}")
  }

  test("the oracle's gradient is the central difference of its Q (Eq. 5)") {
    for ((name, t) <- Seq("mixed columns" -> mixedTable(), "only-continuous columns" -> mixedTable(_.isContinuous))) {
      val o = new TCrowdOracle(t)
      // at the third M-step: the parameters after two EM iterations, and their posteriors
      var (p, post) = (o.start, o.eStep(o.start))
      for (_ <- 1 to 2) { p = o.mStep(p, post, cfg.gdSteps)._1; post = o.eStep(p) }
      val gaps = for {
        (key, at) <- Seq[(Answer => Int, (Int, Double) => TCrowdOracle.Params)](
          (_.worker, (k, d) => p.copy(lnPhi = p.lnPhi.updated(k, p.lnPhi(k) + d))),
          (_.row, (k, d) => p.copy(lnAlpha = p.lnAlpha.updated(k, p.lnAlpha(k) + d))),
          (_.col, (k, d) => p.copy(lnBeta = p.lnBeta.updated(k, p.lnBeta(k) + d))))
        (k, g) <- o.gradient(p, post, key).toSeq.sortBy(_._1).take(4)
      } yield {
        val fd = (o.q(at(k, 1e-5), post) - o.q(at(k, -1e-5), post)) / 2e-5
        // 1e-4, not tighter: Q's categorical terms read `quality`, whose Abramowitz–Stegun
        // erf errs by up to 1.5e-7, while the gradient takes the exact derivative of erf
        assert(math.abs(g - fd) <= 1e-4 * math.abs(fd), s"$name: gradient $g at $k, central difference $fd")
        math.abs(g - fd) / math.abs(fd)
      }
      info(s"$name: largest relative gap ${gaps.max}")
    }
  }

  test("an answer on a column outside the schema is rejected, naming the cell") {
    val ds = mixed.copy(answers = mixed.answers.union(Model.answersDf(spark, Seq(Answer(0, 1, 9, 1.0)))))
    val e = intercept[IllegalArgumentException](TCrowd.infer(ds, cfg))
    assert(e.getMessage.contains("cell (1, 9)"))
    // a non-finite continuous answer, from a dataset or from driver-side answers (an online log)
    for (v <- Seq(Double.NaN, Double.NegativeInfinity)) {
      val bad = Answer(0, 1, 2, v)
      val fromDs = intercept[IllegalArgumentException](TCrowd.infer(
        mixed.copy(answers = mixed.answers.union(Model.answersDf(spark, Seq(bad)))), cfg))
      assert(fromDs.getMessage.contains("cell (1, 2)"), fromDs.getMessage)
      val fromLog = intercept[IllegalArgumentException](Model.answerTable(mixed.columns, Seq(bad)))
      assert(fromLog.getMessage.contains("cell (1, 2)"), fromLog.getMessage)
    }
  }

  test("TCrowd.infer and Correlation.estimate are bit-identical for any partitioning and answer order") {
    val answers = mixed.answers.collect().toSeq
    def withAnswers(rows: Seq[Row], slices: Int): CrowdDataset =
      mixed.copy(answers = spark.createDataFrame(spark.sparkContext.parallelize(rows, slices), Model.answerSchema))
    val variants = Seq(1, 4, 16).map(k => s"numSlices=$k" -> withAnswers(answers, k)) :+
      ("shuffled" -> withAnswers(new Random(3).shuffle(answers), 4))
    val runs = variants.map { case (name, ds) =>
      val res = TCrowd.infer(ds, cfg)
      (name, res, Correlation.estimate(res))
    }
    val (_, res0, corr0) = runs.head
    // identical tables, so every array of the result is compared index by index
    def arrays(r: TCrowdResult): Seq[Seq[Any]] = Seq(r.table.answers.toSeq, r.table.stats.toSeq.sortBy(_._1),
      r.mu.toSeq, r.tphi.toSeq, r.post.toSeq.map(_.toSeq), r.phi.toSeq, r.alpha.toSeq, r.beta.toSeq,
      r.estimatesLocal, Seq(r.iterations, r.converged))
    runs.tail.foreach { case (name, res, corr) =>
      assert(arrays(res) == arrays(res0), name)
      assert(CorrelationSpec.momentsOf(corr) == CorrelationSpec.momentsOf(corr0), name)
    }
  }

  test("EM iterations and Correlation.estimate issue no Spark job") {
    val short = jobsOf(TCrowd.infer(mixed.copy(), TCrowdConfig(maxIters = 1, gdSteps = 1)))
    val ds = mixed.copy()
    val long  = jobsOf(TCrowd.infer(ds, TCrowdConfig(maxIters = 8, gdSteps = 4)))
    info(s"TCrowd.infer: $short jobs at 1x1 iterations, $long at 8x4")
    assert(short == long)
    assert(long == 1) // the collect of CrowdDataset.table
    assert(jobsOf(TCrowd.infer(ds, cfg)) == 0) // the table is kept
    val res = TCrowd.infer(ds.table, cfg)
    assert(jobsOf(Correlation.estimate(res)) == 0)
  }

  private val table7Methods: Seq[InferenceMethod] = {
    val tc = TCrowdConfig(maxIters = 2, gdSteps = 2)
    Experiments.heterogeneousMethods(tc) ++ Experiments.categoricalMethods(tc) ++ Experiments.continuousMethods(tc)
  }

  test("Spark runs only at ingest: one job per infer(ds), none on a collected table or in an online session") {
    val tc = TCrowdConfig(maxIters = 2, gdSteps = 2)
    for (m <- table7Methods) {
      val ds = mixed.copy()
      assert(jobsOf(m.infer(ds)) == 1, m.name)
      assert(jobsOf(m.infer(ds)) == 0, m.name)
      assert(jobsOf(m.infer(ds.table)) == 0, m.name)
    }
    val ds = mixed.copy()
    val res = TCrowd.infer(ds.table, tc)
    assert(jobsOf(Correlation.estimate(res)) == 0)
    assert(jobsOf(Metrics.evaluate(ds, res.estimatesLocal)) == 1) // the truth
    assert(jobsOf(Metrics.evaluate(ds, res.estimatesLocal)) == 0)
    assert(jobsOf(Metrics.evaluate(ds.table, ds.truthCells, res.estimatesLocal)) == 0)
    assert(jobsOf(Metrics.evaluate(mixed.copy(), res.estimatesLocal)) == 2) // the answers and the truth
    val sim = new CrowdSim(Experiments.onlineConfig(rows = 12))
    assert(jobsOf(Assignment.simulate(sim, spark, new StructGainStrategy,
      SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = 0.5, tcrowd = tc))) == 0)
  }

  test("a Table 7 pass on a fresh dataset runs 2 Spark jobs: the answers in core.Model, the truth in metrics.Metrics") {
    val ds = mixed.copy()
    assert(table7Methods.size == 11)
    val tracer = new JobAttribution(spark.sparkContext)
    spark.sparkContext.addSparkListener(tracer)
    val work = try {
      table7Methods.foreach(m => Metrics.evaluate(ds, m.infer(ds)))
      tracer.snapshot
    } finally spark.sparkContext.removeSparkListener(tracer)
    assert(work.map { case (module, w) => module -> w.jobs } == Map("core.Model" -> 1L, "metrics.Metrics" -> 1L), work)
  }
}
