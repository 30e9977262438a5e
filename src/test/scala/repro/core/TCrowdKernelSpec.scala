package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import repro.experiments.Experiments
import repro.metrics.Metrics
import repro.perfbench.JobAttribution
import scala.util.Random

/** The driver-side T-Crowd kernel against [[TCrowdSparkReference]], the
  * DataFrame EM it replaced, and its independence from how the answer
  * relation is partitioned and ordered.
  */
class TCrowdKernelSpec extends CrowdSpec {

  private val cfg = TCrowdConfig(maxIters = 12, gdSteps = 3)

  private def sim(name: String, columns: Seq[SimColumn], workers: Int, perTask: Int,
                  rows: Int = 24, seed: Long = 5L): CrowdDataset =
    new CrowdSim(SimConfig(name, rows, columns, workers, perTask, seed)).dataset(spark)

  private val mixedCols = Seq(SimColumn("c3", 3), SimColumn("c6", 6),
                              SimColumn("x", 0, 0, 100), SimColumn("y", 0, -5, 5))
  private lazy val mixed = sim("mixed", mixedCols, workers = 12, perTask = 4)

  private val datasets: Seq[(String, () => CrowdDataset)] = Seq(
    "mixed columns" -> (() => mixed),
    "only-categorical columns" -> (() => restrictTo(mixed, mixed.categoricalCols, "cat")),
    "only-continuous columns" -> (() => restrictTo(mixed, mixed.continuousCols, "cont")),
    "a single worker" -> (() => sim("one-worker", mixedCols, workers = 1, perTask = 1)),
    "single-answer cells" -> (() => sim("single", mixedCols, workers = 6, perTask = 1, seed = 9L)),
    "a constant continuous column" -> (() => mixed.copy(answers = mixed.answers.withColumn("value",
      when(col("col") === 2, lit(7.0)).otherwise(col("value"))))),
    "a 40-label column" -> (() => sim("forty",
      Seq(SimColumn("c40", 40), SimColumn("c2", 2), SimColumn("x", 0, 0, 10)), workers = 10, perTask = 5)),
    "a schema column with no answers" -> (() => mixed.copy(answers = mixed.answers.filter(col("col") =!= 3))),
  )

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(a))

  private def assertClose[K](what: String, a: Map[K, Double], b: Map[K, Double]): Unit = {
    assert(a.keySet == b.keySet, s"$what keys")
    a.foreach { case (k, v) => assert(close(v, b(k)), s"$what($k): kernel $v vs reference ${b(k)}") }
  }

  // the mixed columns once more, with the iteration budget to converge
  private val runs = datasets.map { case (name, mk) => (name, mk, cfg) } :+
    (("mixed columns, run to convergence", () => mixed, TCrowdConfig(maxIters = 40, gdSteps = 5)))

  for ((name, mk, cfg) <- runs) {
    test(s"kernel agrees with the Spark reference EM to 1e-9 on $name") {
      val ds = mk()
      val got = ResultMaps(TCrowd.infer(ds, cfg))
      val ref = TCrowdSparkReference.infer(ds, cfg)
      info(s"${got.iterations} iterations, converged=${got.converged}")
      assert(got.iterations == ref.iterations && got.converged == ref.converged, name)
      assertClose(s"$name mu", got.contPosterior.map { case (c, p) => c -> p._1 },
        ref.contPosterior.map { case (c, p) => c -> p._1 })
      assertClose(s"$name var", got.contPosterior.map { case (c, p) => c -> p._2 },
        ref.contPosterior.map { case (c, p) => c -> p._2 })
      assert(got.catPosterior.keySet == ref.catPosterior.keySet, name)
      got.catPosterior.foreach { case (c, p) =>
        assert(p.length == ref.catPosterior(c).length, s"$name labels of $c")
        p.indices.foreach(z => assert(close(p(z), ref.catPosterior(c)(z)), s"$name catPosterior($c)($z)"))
      }
      assertClose(s"$name phi", got.phi, ref.phi)
      assertClose(s"$name alpha", got.alpha, ref.alpha)
      assertClose(s"$name beta", got.beta, ref.beta)
      assert(got.beta.keySet == ds.columns.map(_.col).toSet, s"$name: beta covers the schema")
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
      (name, ResultMaps(res), CorrelationMaps(Correlation.estimate(res)))
    }
    val (_, res0, corr0) = runs.head
    runs.tail.foreach { case (name, res, corr) =>
      assert(res.contPosterior == res0.contPosterior, name)
      assert(res.catPosterior.map { case (c, p) => c -> p.toSeq } ==
             res0.catPosterior.map { case (c, p) => c -> p.toSeq }, name)
      assert(res.phi == res0.phi && res.alpha == res0.alpha && res.beta == res0.beta, name)
      assert(res.contStats == res0.contStats, name)
      assert(res.estimatesLocal.toSet == res0.estimatesLocal.toSet, name)
      assert((res.iterations, res.converged) == ((res0.iterations, res0.converged)), name)
      assert(corr == corr0, name)
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
      SimRunConfig(maxAvgAnswers = 2.0, tcrowd = tc))) == 0)
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
