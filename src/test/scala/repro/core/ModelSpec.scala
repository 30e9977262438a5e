package repro.core

import org.apache.spark.sql.Row
import repro.{CrowdSpec, Oracle}
import repro.baselines.{DawidSkene, Glad, MajorityVote, ZenCrowd}

class ModelSpec extends CrowdSpec {

  private def tinyDs: CrowdDataset = {
    val cols = Seq(ColumnSpec(0, "cat", 3), ColumnSpec(1, "cont", 0))
    val answers = Seq(
      Answer(0, 0, 0, 1.0), Answer(1, 0, 0, 1.0), Answer(2, 0, 0, 2.0),
      Answer(0, 0, 1, 10.0), Answer(1, 0, 1, 14.0), Answer(2, 0, 1, 12.0),
      Answer(0, 1, 1, 20.0), Answer(1, 1, 1, 24.0),
    )
    val truth = Seq(TruthCell(0, 0, 1.0), TruthCell(0, 1, 12.0), TruthCell(1, 1, 22.0))
    CrowdDataset("tiny", Model.answersDf(spark, answers), cols, Model.truthDf(spark, truth))
  }

  test("ColumnSpec rejects a single-label categorical column") {
    intercept[IllegalArgumentException](ColumnSpec(0, "bad", 1))
  }

  test("ColumnSpec datatype predicates") {
    assert(ColumnSpec(0, "c", 4).isCategorical)
    assert(!ColumnSpec(0, "c", 4).isContinuous)
    assert(ColumnSpec(1, "x", 0).isContinuous)
  }

  test("answersDf round-trips rows") {
    val ds = tinyDs
    assert(ds.answers.count() == 8)
    assert(ds.answers.columns.toSeq == Seq("worker", "row", "col", "value"))
  }

  test("truthDf round-trips rows") {
    assert(tinyDs.truth.count() == 3)
  }

  test("categorical/continuous column split") {
    val ds = tinyDs
    assert(ds.categoricalCols.map(_.col) == Seq(0))
    assert(ds.continuousCols.map(_.col) == Seq(1))
    assert(ds.labelCount == Map(0 -> 3, 1 -> 0))
  }

  test("continuousStats computes per-column answer mean/std (oracle-checked)") {
    val ds = tinyDs
    val stats = Model.continuousStats(ds)
    assert(stats.keySet == Set(1))
    val (mu, sd) = stats(1)
    // DuckDB oracle on the same aggregation
    import spark.implicits._
    Oracle.assertEquivalent(
      stats.toSeq.map { case (j, (m, s)) => (j, m, s) }.toDF("col", "mu", "sd"),
      "SELECT CAST(col AS INT) AS col, avg(CAST(value AS DOUBLE)) AS mu, stddev_pop(CAST(value AS DOUBLE)) AS sd " +
        "FROM answers WHERE col = '1' GROUP BY 1",
      "answers" -> ds.answers)
    assert(math.abs(mu - 16.0) < 1e-9)
    assert(sd > 0)
  }

  test("continuousStats does not depend on the partitioning or order of the answers") {
    val r = new scala.util.Random(4)
    val answers = (0 until 200).map(k => Row(k % 7, k, 1, 100 * r.nextGaussian()))
    val stats = Seq(answers, answers.reverse).flatMap(rows => Seq(1, 3, 8).map { k =>
      Model.continuousStats(tinyDs.copy(answers =
        spark.createDataFrame(spark.sparkContext.parallelize(rows, k), Model.answerSchema)))
    })
    assert(stats.distinct.size == 1)
  }

  test("continuousStats is empty for all-categorical datasets") {
    val ds = tinyDs
    val catOnly = ds.restrictTo(ds.categoricalCols, "cat")
    assert(Model.continuousStats(catOnly).isEmpty)
  }

  test("restrictTo filters answers and truth") {
    val ds = tinyDs
    val catOnly = ds.restrictTo(ds.categoricalCols, "cat")
    assert(catOnly.answers.count() == 3)
    assert(catOnly.truth.count() == 1)
    assert(catOnly.name == "tiny-cat")
    val contOnly = ds.restrictTo(ds.continuousCols, "cont")
    assert(contOnly.answers.count() == 5)
    assert(contOnly.truth.count() == 2)
  }

  test("normalize and denormalize are inverse on continuous columns only") {
    val stats = Map(1 -> (16.0, 4.0))
    assert(Model.normalize(stats, 1, 20.0) == 1.0)
    assert(Model.normalize(stats, 0, 2.0) == 2.0)
    val cells = Seq(TruthCell(0, 0, 2.0), TruthCell(0, 1, 1.0))
    assert(Model.denormalize(cells, stats) == Seq(TruthCell(0, 0, 2.0), TruthCell(0, 1, 20.0)))
  }

  test("labelPosterior is a softmax over the full label set, unvoted labels at 0") {
    val post = Model.labelPosterior(Array(Row(0, 0, 2.0, math.log(2.0))), Map(0 -> 3))
    assert(post.keySet == Set((0, 0)))
    assert(post((0, 0)).toSeq.map(p => math.round(p * 1e9)) == Seq(250000000L, 250000000L, 500000000L))
  }

  test("gaussianPosterior combines answer precision with the N(0, PriorVar) prior") {
    val (mu, tphi) = Model.gaussianPosterior(Array(Row(0, 1, 2.0, 3.0)))((0, 1))
    assert(math.abs(tphi - 1.0 / (2.0 + 1.0 / Model.PriorVar)) < 1e-12)
    assert(math.abs(mu - 3.0 * tphi) < 1e-12)
  }

  private def assertRejectsBadLabels(methods: Seq[(String, CrowdDataset => Any)]): Unit = {
    val ds = tinyDs
    for (bad <- Seq(1.5, 3.0); (name, infer) <- methods) {
      val answers = ds.answers.union(Model.answersDf(spark, Seq(Answer(3, 0, 0, bad))))
      val e = intercept[IllegalArgumentException](infer(ds.copy(answers = answers)))
      assert(e.getMessage.contains("cell (0, 0)"), s"$name on answer $bad: ${e.getMessage}")
    }
  }

  test("T-Crowd, GLAD and ZenCrowd reject a categorical answer that is not a label in [0, L)") {
    assertRejectsBadLabels(Seq(
      "T-Crowd"  -> (d => TCrowd.infer(d, TCrowdConfig(maxIters = 1, gdSteps = 1))),
      "GLAD"     -> (d => Glad(iters = 1, gdSteps = 1).infer(d)),
      "ZenCrowd" -> (d => ZenCrowd(iters = 1).infer(d)),
    ))
  }

  test("Dawid-Skene and Majority Voting reject a categorical answer that is not a label in [0, L)") {
    assertRejectsBadLabels(Seq(
      "Dawid-Skene" -> (d => DawidSkene(iters = 1).infer(d)),
      "Maj. Voting" -> (d => MajorityVote.infer(d)),
    ))
  }
}
