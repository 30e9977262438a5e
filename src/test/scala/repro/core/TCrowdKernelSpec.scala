package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
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
    "only-categorical columns" -> (() => mixed.restrictTo(mixed.categoricalCols, "cat")),
    "only-continuous columns" -> (() => mixed.restrictTo(mixed.continuousCols, "cont")),
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
      val got = TCrowd.infer(ds, cfg)
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
  }

  test("TCrowd.infer and Correlation.estimate are bit-identical for any partitioning and answer order") {
    val answers = mixed.answers.collect().toSeq
    def withAnswers(rows: Seq[Row], slices: Int): CrowdDataset =
      mixed.copy(answers = spark.createDataFrame(spark.sparkContext.parallelize(rows, slices), Model.answerSchema))
    val variants = Seq(1, 4, 16).map(k => s"numSlices=$k" -> withAnswers(answers, k)) :+
      ("shuffled" -> withAnswers(new Random(3).shuffle(answers), 4))
    val runs = variants.map { case (name, ds) =>
      val res = TCrowd.infer(ds, cfg)
      (name, res, Correlation.estimate(ds, res))
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

  test("EM iterations issue no Spark job, and Correlation.estimate issues one") {
    val short = jobsOf(TCrowd.infer(mixed, TCrowdConfig(maxIters = 1, gdSteps = 1)))
    val long  = jobsOf(TCrowd.infer(mixed, TCrowdConfig(maxIters = 8, gdSteps = 4)))
    info(s"TCrowd.infer: $short jobs at 1x1 iterations, $long at 8x4")
    assert(short == long)
    assert(long == 1) // the collect of Model.answerTable
    val res = TCrowd.infer(mixed, cfg)
    assert(jobsOf(Correlation.estimate(mixed, res)) == 1)
  }
}
