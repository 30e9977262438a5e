package repro.baselines

import repro.CrowdSpec
import repro.Oracle
import repro.core._
import org.apache.spark.sql.functions._

class SimpleBaselinesSpec extends CrowdSpec {

  private def catDs: CrowdDataset = {
    val cols = Seq(ColumnSpec(0, "c", 3))
    val answers = Seq(
      // cell (0,0): votes 1,1,2 -> majority 1
      Answer(0, 0, 0, 1.0), Answer(1, 0, 0, 1.0), Answer(2, 0, 0, 2.0),
      // cell (1,0): votes 0,2,2 -> majority 2
      Answer(0, 1, 0, 0.0), Answer(1, 1, 0, 2.0), Answer(2, 1, 0, 2.0),
      // cell (2,0): tie 0 vs 1 -> deterministic smallest label 0
      Answer(0, 2, 0, 0.0), Answer(1, 2, 0, 1.0),
    )
    val truth = Seq(TruthCell(0, 0, 1.0), TruthCell(1, 0, 2.0), TruthCell(2, 0, 0.0))
    CrowdDataset("mv", Model.answersDf(spark, answers), cols, Model.truthDf(spark, truth))
  }

  private def contDs: CrowdDataset = {
    val cols = Seq(ColumnSpec(0, "x", 0))
    val answers = Seq(
      Answer(0, 0, 0, 1.0), Answer(1, 0, 0, 3.0), Answer(2, 0, 0, 100.0), // median 3
      Answer(0, 1, 0, 2.0), Answer(1, 1, 0, 4.0),                          // median 3 (even)
    )
    val truth = Seq(TruthCell(0, 0, 3.0), TruthCell(1, 0, 3.0))
    CrowdDataset("med", Model.answersDf(spark, answers), cols, Model.truthDf(spark, truth))
  }

  test("MajorityVote picks the modal label") {
    val est = MajorityVote.infer(catDs).map(t => (t.row, t.col) -> t.value).toMap
    assert(est((0, 0)) == 1.0)
    assert(est((1, 0)) == 2.0)
  }

  test("MajorityVote breaks ties deterministically to the smallest label") {
    val est = MajorityVote.infer(catDs).map(t => (t.row, t.col) -> t.value).toMap
    assert(est((2, 0)) == 0.0)
  }

  test("MajorityVote vote counts agree with DuckDB oracle") {
    val d = catDs
    val counts = d.answers.groupBy("row", "col", "value").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      counts,
      "SELECT row, col, CAST(value AS DOUBLE) AS value, count(*) AS n " +
        "FROM answers GROUP BY row, col, value",
      "answers" -> d.answers)
  }

  test("MajorityVote argmax agrees with a DuckDB window query") {
    val d = catDs
    val est = Model.truthDf(spark, MajorityVote.infer(d)).withColumnRenamed("value", "est")
    Oracle.assertEquivalent(
      est,
      """SELECT row, col, value AS est FROM (
        |  SELECT row, col, CAST(value AS DOUBLE) AS value,
        |         row_number() OVER (PARTITION BY row, col
        |                            ORDER BY count(*) DESC, CAST(value AS DOUBLE) ASC) AS rk
        |  FROM answers GROUP BY row, col, value
        |) WHERE rk = 1""".stripMargin,
      "answers" -> d.answers)
  }

  test("MajorityVote on a continuous-only dataset is empty") {
    assert(MajorityVote.infer(contDs).isEmpty)
  }

  test("MajorityVote is robust to a spammer minority") {
    assert(repro.metrics.Metrics.evaluate(catDs, MajorityVote.infer(catDs))._1 == 0.0)
  }

  test("Median computes the exact per-cell median") {
    val est = MedianBaseline.infer(contDs).map(t => (t.row, t.col) -> t.value).toMap
    assert(est((0, 0)) == 3.0)
    assert(est((1, 0)) == 3.0)
  }

  test("Median agrees with the DuckDB median oracle") {
    val d = contDs
    val sparkMed = d.answers.groupBy("row", "col")
      .agg(expr("percentile(value, 0.5)").as("med"))
    Oracle.assertEquivalent(
      sparkMed,
      "SELECT row, col, median(CAST(value AS DOUBLE)) AS med FROM answers GROUP BY row, col",
      "answers" -> d.answers)
  }

  test("Median shrugs off a single outlier") {
    assert(repro.metrics.Metrics.evaluate(contDs, MedianBaseline.infer(contDs))._2 == 0.0)
  }

  test("Median on a categorical-only dataset is empty") {
    assert(MedianBaseline.infer(catDs).isEmpty)
  }

  test("names match Table 7 labels") {
    assert(MajorityVote.name == "Maj. Voting")
    assert(MedianBaseline.name == "Median")
  }
}
