package repro.metrics

import repro.CrowdSpec
import repro.Oracle
import repro.core._

class MetricsSpec extends CrowdSpec {

  private def ds: CrowdDataset = {
    val cols = Seq(ColumnSpec(0, "cat", 3), ColumnSpec(1, "x", 0), ColumnSpec(2, "y", 0))
    val answers = Seq(
      Answer(0, 0, 0, 0.0), Answer(1, 0, 0, 1.0),
      Answer(0, 1, 0, 2.0), Answer(1, 1, 0, 2.0),
      Answer(0, 0, 1, 10.0), Answer(1, 0, 1, 14.0),
      Answer(0, 1, 1, 6.0), Answer(1, 1, 1, 8.0),
      Answer(0, 0, 2, 100.0), Answer(1, 0, 2, 120.0),
      Answer(0, 1, 2, 90.0), Answer(1, 1, 2, 95.0),
    )
    val truth = Seq(
      TruthCell(0, 0, 0.0), TruthCell(1, 0, 2.0),
      TruthCell(0, 1, 12.0), TruthCell(1, 1, 7.0),
      TruthCell(0, 2, 110.0), TruthCell(1, 2, 92.0),
    )
    CrowdDataset("m", Model.answersDf(spark, answers), cols, Model.truthDf(spark, truth))
  }

  test("errorRate: perfect estimates give 0") {
    val est = Seq(TruthCell(0, 0, 0.0), TruthCell(1, 0, 2.0))
    assert(Metrics.evaluate(ds, est)._1 == 0.0)
  }

  test("errorRate: one of two wrong gives 0.5") {
    val est = Seq(TruthCell(0, 0, 1.0), TruthCell(1, 0, 2.0))
    assert(Metrics.evaluate(ds, est)._1 == 0.5)
  }

  test("errorRate: all wrong gives 1.0") {
    val est = Seq(TruthCell(0, 0, 1.0), TruthCell(1, 0, 0.0))
    assert(Metrics.evaluate(ds, est)._1 == 1.0)
  }

  test("errorRate ignores continuous cells in the estimate set") {
    val est = Seq(TruthCell(0, 0, 0.0), TruthCell(1, 0, 2.0),
                  TruthCell(0, 1, 999.0), TruthCell(1, 2, -1.0))
    assert(Metrics.evaluate(ds, est)._1 == 0.0)
  }

  test("errorRate is NaN without categorical columns") {
    val d = ds
    val contOnly = d.table.restrictTo(_.isContinuous)
    assert(Metrics.evaluate(contOnly, d.truthCells, Seq(TruthCell(0, 1, 1.0)))._1.isNaN)
  }

  test("a truth relation that is not (row, col: int, value: double) is rejected, naming the field") {
    val d = ds
    import org.apache.spark.sql.functions.col
    val intValue = d.truth.select(col("row"), col("col"), col("value").cast("int").as("value"))
    // an answer relation in place of the truth: (row, worker, col, value)
    val answers = d.answers.select("row", "worker", "col", "value")
    for ((df, field) <- Seq(intValue -> "field 2 is value: int, expected value: double",
                            answers -> "field 1 is worker: int, expected col: int")) {
      val e = intercept[IllegalArgumentException](Metrics.evaluate(d.copy(truth = df), Seq(TruthCell(0, 0, 0.0))))
      assert(e.getMessage == s"truth $field", e.getMessage)
      // the same relations on the answers path
      intercept[IllegalArgumentException](d.copy(answers = df).table)
    }
  }

  test("mnad: exact estimates give 0") {
    val est = Seq(TruthCell(0, 1, 12.0), TruthCell(1, 1, 7.0),
                  TruthCell(0, 2, 110.0), TruthCell(1, 2, 92.0))
    assert(Metrics.evaluate(ds, est)._2 == 0.0)
  }

  test("mnad matches hand computation (per-column RMSE / answer std, averaged)") {
    val d = ds
    // col 1: answers {10,14,6,8} mean 9.5, std_pop = sqrt(8.75)
    // estimates off by +1 on both cells -> RMSE 1
    // col 2: answers {100,120,90,95} mean 101.25, var_pop = 129.6875
    // estimates off by (2, -2) -> RMSE 2
    val est = Seq(TruthCell(0, 1, 13.0), TruthCell(1, 1, 8.0),
                  TruthCell(0, 2, 112.0), TruthCell(1, 2, 90.0))
    val sd1 = math.sqrt(8.75)
    val sd2 = math.sqrt(129.6875)
    val expected = (1.0 / sd1 + 2.0 / sd2) / 2
    assert(math.abs(Metrics.evaluate(d, est)._2 - expected) < 1e-9)
  }

  test("mnad is NaN without continuous columns") {
    val d = ds
    val catOnly = d.table.restrictTo(_.isCategorical)
    assert(Metrics.evaluate(catOnly, d.truthCells, Seq(TruthCell(0, 0, 0.0)))._2.isNaN)
  }

  test("evaluate returns both measures at once") {
    val est = Seq(TruthCell(0, 0, 0.0), TruthCell(1, 0, 0.0),
                  TruthCell(0, 1, 12.0), TruthCell(1, 1, 7.0),
                  TruthCell(0, 2, 110.0), TruthCell(1, 2, 92.0))
    val (er, mn) = Metrics.evaluate(ds, est)
    assert(er == 0.5)
    assert(mn == 0.0)
  }

  /** The one value DuckDB computes for `sql` over the truth, the estimates
    * `est` and the answers of `d`.
    */
  private def duck(sql: String, d: CrowdDataset, est: Seq[TruthCell]): Double =
    Oracle.query(sql, "truth" -> d.truth, "est" -> Model.truthDf(spark, est), "answers" -> d.answers)
      .head.getAs[Number](0).doubleValue

  test("errorRate join agrees with DuckDB oracle") {
    val d = ds
    val est = Seq(TruthCell(0, 0, 1.0), TruthCell(1, 0, 2.0))
    val er = duck(
      """SELECT avg(CASE WHEN CAST(t.value AS DOUBLE) <> CAST(e.value AS DOUBLE)
        |                THEN 1.0 ELSE 0.0 END) AS er
        |FROM truth t JOIN est e ON t.row = e.row AND t.col = e.col
        |WHERE t.col = '0'""".stripMargin, d, est)
    assert(er == 0.5)
    assert(math.abs(Metrics.evaluate(d, est)._1 - er) < 1e-9)
  }

  test("per-column RMSE aggregation agrees with DuckDB oracle") {
    val d = ds
    val est = Seq(
      TruthCell(0, 1, 13.0), TruthCell(1, 1, 8.0),
      TruthCell(0, 2, 112.0), TruthCell(1, 2, 90.0))
    val mnad = duck(
      """WITH rmse AS (
        |  SELECT t.col, sqrt(avg(pow(CAST(t.value AS DOUBLE) - CAST(e.value AS DOUBLE), 2))) AS rmse
        |  FROM truth t JOIN est e ON t.row = e.row AND t.col = e.col
        |  WHERE t.col IN ('1','2') GROUP BY t.col),
        |sd AS (
        |  SELECT col, stddev_pop(CAST(value AS DOUBLE)) AS sd FROM answers
        |  WHERE col IN ('1','2') GROUP BY col)
        |SELECT avg(rmse.rmse / sd.sd) AS mnad FROM rmse JOIN sd ON rmse.col = sd.col""".stripMargin, d, est)
    assert(math.abs(Metrics.evaluate(d, est)._2 - mnad) < 1e-9)
  }
}
