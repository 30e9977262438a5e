package repro.core

import org.apache.spark.sql.Row
import repro.{CrowdSpec, Oracle}
import repro.baselines._

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

  /** The continuous stats every inference method normalizes with. */
  private def continuousStats(ds: CrowdDataset) = ds.table.stats

  test("continuousStats computes per-column answer mean/std (oracle-checked)") {
    val ds = tinyDs
    val stats = continuousStats(ds)
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
      continuousStats(tinyDs.copy(answers =
        spark.createDataFrame(spark.sparkContext.parallelize(rows, k), Model.answerSchema)))
    })
    assert(stats.distinct.size == 1)
  }

  test("continuousStats is empty for all-categorical datasets") {
    val ds = tinyDs
    val catOnly = restrictTo(ds, ds.categoricalCols, "cat")
    assert(continuousStats(catOnly).isEmpty)
  }

  test("restrictTo filters answers and truth") {
    val ds = tinyDs
    val catOnly = restrictTo(ds, ds.categoricalCols, "cat")
    assert(catOnly.answers.count() == 3)
    assert(catOnly.truth.count() == 1)
    assert(catOnly.name == "tiny-cat")
    val contOnly = restrictTo(ds, ds.continuousCols, "cont")
    assert(contOnly.answers.count() == 5)
    assert(contOnly.truth.count() == 2)
    // the answer-table restriction behind TC-onlyCate / TC-onlyCont
    val t = ds.table
    assert(t.restrictTo(_.isCategorical).size == 3 && t.restrictTo(_.isCategorical).columns == ds.categoricalCols)
    assert(t.restrictTo(_.isContinuous).size == 5 && t.restrictTo(_.isContinuous).columns == ds.continuousCols)
  }

  test("an answer table rejects a second answer of one worker on one cell, naming the cell") {
    val ds = tinyDs
    val again = Answer(1, 0, 1, 99.0) // worker 1 already answered cell (0, 1) with 14
    val fromDs = intercept[IllegalArgumentException](
      ds.copy(answers = ds.answers.union(Model.answersDf(spark, Seq(again)))).table)
    val fromLog = intercept[IllegalArgumentException](Model.answerTable(ds.columns, Seq(again, Answer(1, 0, 1, 14.0))))
    for (e <- Seq(fromDs, fromLog))
      assert(e.getMessage.contains("worker 1 answered cell (0, 1) twice"), e.getMessage)
    // the same answer twice is rejected too; another worker on the cell is not
    intercept[IllegalArgumentException](Model.answerTable(ds.columns, Seq(Answer(1, 0, 1, 14.0), Answer(1, 0, 1, 14.0))))
    assert(Model.answerTable(ds.columns, Seq(Answer(1, 0, 1, 14.0), Answer(2, 0, 1, 14.0))).size == 2)
  }

  test("a schema with a repeated or negative column id is rejected, naming the id") {
    val cat = ColumnSpec(0, "cat", 3)
    for ((cols, msg) <- Seq(
           Seq(cat, ColumnSpec(1, "a", 0), ColumnSpec(1, "b", 0)) -> "column id 1 is repeated in the schema",
           Seq(cat, ColumnSpec(-2, "x", 0)) -> "column id -2 is negative")) {
      val fromTable = intercept[IllegalArgumentException](Model.answerTable(cols, Seq(Answer(0, 0, 0, 1.0))))
      val fromSnapshot = intercept[IllegalArgumentException](new Snapshot(Assignment.emptyResult, 2, cols))
      for (e <- Seq(fromTable, fromSnapshot)) assert(e.getMessage.contains(msg), e.getMessage)
    }
  }

  test("an answer relation that is not (worker, row, col: int, value: double) is rejected, naming the field") {
    val ds = tinyDs
    import org.apache.spark.sql.functions.col
    val intValue = ds.answers.select(col("worker"), col("row"), col("col"), col("value").cast("int").as("value"))
    val swapped = ds.answers.select("row", "worker", "col", "value")
    for ((df, field) <- Seq(intValue -> "field 3 is value: int, expected value: double",
                            swapped -> "field 0 is row: int, expected worker: int")) {
      val e = intercept[IllegalArgumentException](ds.copy(answers = df).table)
      assert(e.getMessage == s"answers $field", e.getMessage)
      // the same relations on the truth path
      intercept[IllegalArgumentException](ds.copy(truth = df).truthCells)
    }
  }

  test("an answer or truth relation with a null field is rejected") {
    val ds = tinyDs
    import org.apache.spark.sql.functions.{col, lit, when}
    val nullValue = ds.answers.withColumn("value", when(col("row") === 1, lit(null)).otherwise(col("value")))
    val e = intercept[IllegalArgumentException](ds.copy(answers = nullValue).table)
    assert(e.getMessage == "answers has a null field", e.getMessage)
    val nullTruth = ds.truth.withColumn("value", when(col("row") === 1, lit(null)).otherwise(col("value")))
    val f = intercept[IllegalArgumentException](ds.copy(truth = nullTruth).truthCells)
    assert(f.getMessage == "truth has a null field", f.getMessage)
  }

  test("normalize and denormalize are inverse on continuous columns only") {
    val stats = Map(1 -> (16.0, 4.0))
    assert(Model.normalize(stats, 1, 20.0) == 1.0)
    assert(Model.normalize(stats, 0, 2.0) == 2.0)
    assert(Model.denormalize(stats, 0, 2.0) == 2.0)
    assert(Model.denormalize(stats, 1, 1.0) == 20.0)
  }

  test("labelPosterior is a softmax over the full label set, unvoted labels at 0") {
    // one answer, label 2, right with probability 1/2: score ln(0.5) - ln(0.25 / 1) = ln 2
    val t = new AnswerTable(Seq(ColumnSpec(0, "cat", 3)), Array(Answer(0, 0, 0, 2.0)))
    val post = t.labelPosteriors(_ => 0.5)
    assert(t.cellIds.toSeq == Seq((0, 0)))
    assert(post(0).toSeq.map(p => math.round(p * 1e9)) == Seq(250000000L, 250000000L, 500000000L))
  }

  test("gaussianPosterior combines answer precision with the N(0, PriorVar) prior") {
    // answers 0 and 10 normalize to -1 and 1; precisions 0.5 and 1.5 give sum w = 2, sum w*value = 1
    val t = new AnswerTable(Seq(ColumnSpec(1, "cont", 0)), Array(Answer(0, 0, 1, 0.0), Answer(1, 0, 1, 10.0)))
    val (mu, tphi) = t.gaussianPosteriors(k => if (t.value(k) < 0) 0.5 else 1.5)
    assert(math.abs(tphi(0) - 1.0 / (2.0 + 1.0 / Model.PriorVar)) < 1e-12)
    assert(math.abs(mu(0) - 1.0 * tphi(0)) < 1e-12)
  }

  private def assertRejectsBadLabels(methods: Seq[(String, CrowdDataset => Any)]): Unit =
    assertRejects(methods, Seq(Answer(3, 0, 0, 1.5), Answer(3, 0, 0, 3.0)), "cell (0, 0)")

  /** Each method rejects the tiny dataset plus each one of `bad`, with a message naming `cell`. */
  private def assertRejects(methods: Seq[(String, CrowdDataset => Any)], bad: Seq[Answer], cell: String): Unit = {
    val ds = tinyDs
    for (a <- bad; (name, infer) <- methods) {
      val answers = ds.answers.union(Model.answersDf(spark, Seq(a)))
      val e = intercept[IllegalArgumentException](infer(ds.copy(answers = answers)))
      assert(e.getMessage.contains(cell), s"$name on $a: ${e.getMessage}")
    }
  }

  /** Every method of Table 7, and the MV+Median pairing of the assignment runs. */
  private val allMethods: Seq[(String, CrowdDataset => Any)] = Seq[InferenceMethod](
    TCrowdMethod(TCrowdConfig(maxIters = 1, gdSteps = 1)), TCrowdOnlyCate(TCrowdConfig(maxIters = 1, gdSteps = 1)),
    TCrowdOnlyCont(TCrowdConfig(maxIters = 1, gdSteps = 1)), Crh(iters = 1), Catd(iters = 1), MajorityVote,
    MedianBaseline, DawidSkene(iters = 1), Glad(iters = 1, gdSteps = 1), ZenCrowd(iters = 1), Gtm(iters = 1),
    VoteMedian,
  ).map(m => m.name -> ((d: CrowdDataset) => m.infer(d)))

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

  test("every inference method rejects a categorical answer that is not a label in [0, L)") {
    assertRejectsBadLabels(allMethods)
  }

  test("every inference method rejects an answer on a column outside the schema") {
    assertRejects(allMethods, Seq(Answer(3, 0, 9, 1.0)), "cell (0, 9)")
  }
}
