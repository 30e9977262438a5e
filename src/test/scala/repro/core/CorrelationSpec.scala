package repro.core

import repro.{CrowdSpec, Oracle}
import scala.util.Random

/** Structure-aware correlation model (paper §5.2, Tables 4/5). The fixtures
  * build answer sets with *known* error structure against a hand-made
  * inference result over their table, so every estimated quantity has a
  * closed-form target.
  */
class CorrelationSpec extends CrowdSpec {

  /** Columns: 0 cat(3), 1 cat(2), 2 cont, 3 cont. Truth on every cell of
    * `t`: label 0 for cat, 0.0 in normalized space for cont.
    */
  private def mkResult(t: AnswerTable): TCrowdResult = ResultMaps.result(t,
    contPosterior = t.cellIds.map(_ -> (0.0, 0.1)).toMap,
    catPosterior = t.cellIds.map { case c @ (_, j) => c -> (if (j == 0) Array(1.0, 0.0, 0.0) else Array(1.0, 0.0)) }.toMap)

  private val columns = Seq(ColumnSpec(0, "c3", 3), ColumnSpec(1, "c2", 2),
                            ColumnSpec(2, "x", 0), ColumnSpec(3, "y", 0))

  /** Worker u on row i: errs on both cat columns together (row-level effect)
    * and has strongly correlated continuous errors (e3 ~= 0.8 * e2).
    */
  private def mkDataset(rows: Int, workers: Int): CrowdDataset = {
    val r = new Random(11)
    val answers = for (i <- 0 until rows; u <- 0 until workers) yield {
      val bad = r.nextDouble() < 0.4 // row-level failure for this worker
      val e2 = r.nextGaussian()
      val e3 = 0.8 * e2 + 0.2 * r.nextGaussian()
      Seq(
        Answer(u, i, 0, if (bad) 1.0 else 0.0),
        Answer(u, i, 1, if (bad && r.nextDouble() < 0.8) 1.0 else 0.0),
        Answer(u, i, 2, e2),
        Answer(u, i, 3, e3),
      )
    }
    val truth = for (i <- 0 until rows; j <- 0 until 4) yield TruthCell(i, j, 0.0)
    CrowdDataset("corr", Model.answersDf(spark, answers.flatten), columns,
      Model.truthDf(spark, truth))
  }

  private lazy val ds = mkDataset(rows = 60, workers = 6)
  private lazy val table = ds.table
  private lazy val res = mkResult(table)
  private lazy val model = Correlation.estimate(res)
  private lazy val maps = CorrelationMaps(model)

  private lazy val answers = table.answers

  test("errors(): categorical errors are 0/1, continuous errors are signed") {
    val err = Correlation.errors(res)
    answers.indices.foreach { k =>
      val (a, e) = (answers(k), err(k))
      if (a.col <= 1) assert(e == (if (a.value == 0.0) 0.0 else 1.0))
      else {
        val (mu, sd) = table.stats(a.col)
        assert(e == (a.value - mu) / sd) // truth 0 in normalized space
      }
    }
  }

  test("marginals, pair moments and conditionals on a categorical error match DuckDB (oracle-checked)") {
    import spark.implicits._
    val err = Correlation.errors(res)
    val errs = answers.indices.map(k => (answers(k).worker, answers(k).row, answers(k).col, err(k)))
      .toDF("worker", "row", "col", "e")
    val e = "CAST(e AS DOUBLE)"
    Oracle.assertEquivalent(
      maps.marginal.toSeq.map { case (j, d) => (j, d.mean, d.variance, d.n) }.toDF("j", "m", "v", "n"),
      s"SELECT CAST(col AS INT) AS j, avg($e) AS m, var_pop($e) AS v, count(*) AS n FROM errs GROUP BY 1",
      "errs" -> errs)
    val pairs = "FROM errs a JOIN errs b ON a.worker = b.worker AND a.row = b.row AND a.col <> b.col"
    val (ej, ek) = ("CAST(a.e AS DOUBLE)", "CAST(b.e AS DOUBLE)")
    Oracle.assertEquivalent(
      maps.contPair.toSeq.map { case ((j, k), (mj, mk, vj, vk, cov)) => (j, k, mj, mk, vj, vk, cov, maps.weight((j, k))) }
        .toDF("j", "k", "muj", "muk", "vj", "vk", "cov", "w"),
      s"""SELECT CAST(a.col AS INT) AS j, CAST(b.col AS INT) AS k, avg($ej) AS muj, avg($ek) AS muk,
         |  var_pop($ej) AS vj, var_pop($ek) AS vk, covar_pop($ej, $ek) AS cov,
         |  CASE WHEN var_pop($ej) <= 0 OR var_pop($ek) <= 0 THEN 0
         |       ELSE covar_pop($ej, $ek) / sqrt(var_pop($ej) * var_pop($ek)) END AS w
         |$pairs GROUP BY 1, 2""".stripMargin,
      "errs" -> errs)
    Oracle.assertEquivalent(
      maps.condOnCat.toSeq.map { case ((j, k, c), d) => (j, k, c, d.mean, d.variance, d.n) }
        .toDF("j", "k", "ek", "m", "v", "n"),
      s"""SELECT CAST(a.col AS INT) AS j, CAST(b.col AS INT) AS k, CAST($ek AS INT) AS ek,
         |  avg($ej) AS m, var_pop($ej) AS v, count(*) AS n
         |$pairs WHERE CAST(b.col AS INT) IN (0, 1) GROUP BY 1, 2, 3""".stripMargin,
      "errs" -> errs)
  }

  test("errors equal the map-based reference bit for bit") {
    // estimates that vary by cell: label i % 2 and mean 0.1 * (i % 3) on row i
    val varied = ResultMaps.result(table,
      contPosterior = table.cellIds.map { case c @ (i, _) => c -> (0.1 * (i % 3), 0.1) }.toMap,
      catPosterior = table.cellIds.map { case c @ (i, j) =>
        c -> Array.tabulate(if (j == 0) 3 else 2)(z => if (z == i % 2) 1.0 else 0.0) }.toMap)
    for (r <- Seq(res, varied)) {
      val (got, want) = (Correlation.errors(r), CorrelationReference.errors(r))
      assert(got.map(java.lang.Double.doubleToLongBits).toSeq == want.map(java.lang.Double.doubleToLongBits).toSeq)
    }
  }

  test("estimate equals the map-based reference exactly, whatever the schema order") {
    val reordered = Model.answerTable(columns.reverse, answers)
    val constant = Model.answerTable(columns, for (i <- 0 until 3; j <- Seq(2, 3)) yield Answer(0, i, j, 0.1))
    for ((name, t) <- Seq(("60-row", table), ("reversed schema", reordered), ("constant", constant))) {
      val r = mkResult(t)
      assert(CorrelationMaps(Correlation.estimate(r)) == CorrelationReference.estimate(r), name)
    }
    assert(CorrelationMaps(Correlation.estimate(mkResult(reordered))) == maps)
  }

  test("conditional and predict equal the map-based reference exactly") {
    val r = new Random(5)
    val ids = Seq(0, 1, 2, 3, 99)
    def error(k: Int): Double = if (k <= 1) r.nextInt(2).toDouble else 3 * r.nextGaussian()
    val noCond = new CorrelationModel(model.columns, model.marginal, model.pair, new Array(model.cond.length))
    for (m <- Seq(model, noCond); mm = CorrelationMaps(m);
         _ <- 0 until 300) {
      val obs = List.fill(r.nextInt(4))(ids(r.nextInt(ids.size))).map(k => (k, error(k)))
      for (j <- ids) {
        assert(m.predict(j, obs) == CorrelationReference.predict(mm, j, obs), s"j=$j obs=$obs")
        for ((k, ek) <- obs) assert(m.conditional(j, k, ek) == CorrelationReference.conditional(mm, j, k, ek))
      }
    }
  }

  test("a pair of constant errors gets W = 0") {
    // three (worker, row) contexts whose errors on columns 2 and 3 are all 0.1
    val answers = for (i <- 0 until 3; j <- Seq(2, 3)) yield Answer(0, i, j, 0.1)
    val constant = CrowdDataset("const", Model.answersDf(spark, answers), columns,
      Model.truthDf(spark, Seq.empty))
    val m = CorrelationMaps(Correlation.estimate(mkResult(constant.table)))
    assert(m.marginal(2).variance == 0.0)
    assert(m.weight((2, 3)) == 0.0 && m.weight((3, 2)) == 0.0)
  }

  test("marginal error distributions are estimated per attribute") {
    assert(maps.marginal.keySet == Set(0, 1, 2, 3))
    // cat marginal means are error rates in (0,1)
    assert(maps.marginal(0).mean > 0.2 && maps.marginal(0).mean < 0.6)
    // cont marginal near N(0,1)-ish
    assert(math.abs(maps.marginal(2).mean) < 0.2)
  }

  test("W_jk is strongly positive for the correlated continuous pair") {
    val w = maps.weight((3, 2))
    info(f"W(3,2) = $w%.3f")
    assert(w > 0.6)
  }

  test("W_jk is strongly positive for the co-failing categorical pair") {
    val w = maps.weight((1, 0))
    info(f"W(1,0) = $w%.3f")
    assert(w > 0.4)
  }

  test("cat|cat conditional: P(e1=1 | e0=1) >> P(e1=1 | e0=0)") {
    val pGivenErr = model.conditional(1, 0, 1.0).get.mean
    val pGivenOk  = model.conditional(1, 0, 0.0).get.mean
    info(f"P(e1|e0=1)=$pGivenErr%.3f P(e1|e0=0)=$pGivenOk%.3f")
    assert(pGivenErr > pGivenOk + 0.3)
  }

  test("cont|cont conditional tracks the regression line e3 = 0.8 e2") {
    val atPlus = model.conditional(3, 2, 2.0).get
    val atMinus = model.conditional(3, 2, -2.0).get
    info(f"E[e3|e2=2]=${atPlus.mean}%.3f E[e3|e2=-2]=${atMinus.mean}%.3f")
    assert(atPlus.mean > 1.0)
    assert(atMinus.mean < -1.0)
    // conditional variance is far below the marginal variance
    assert(atPlus.variance < maps.marginal(3).variance * 0.5)
  }

  test("cont|cat conditional: continuous error given a categorical error") {
    val d = model.conditional(2, 0, 1.0)
    assert(d.isDefined)
    assert(d.get.variance > 0)
  }

  test("cat|cont conditional is a valid probability via Bayes") {
    val d = model.conditional(0, 2, 0.5)
    assert(d.isDefined)
    assert(d.get.mean > 0 && d.get.mean < 1)
  }

  test("conditional on an unobserved pair is None") {
    assert(model.conditional(0, 99, 1.0).isEmpty)
  }

  test("predict() with a single observation equals the raw conditional") {
    val single = model.predict(3, Seq((2, 1.5))).get
    val cond = model.conditional(3, 2, 1.5).get
    assert(math.abs(single.mean - cond.mean) < 1e-9)
    assert(math.abs(single.variance - cond.variance) < 1e-9)
  }

  test("predict() ignores the target attribute itself") {
    assert(model.predict(3, Seq((3, 1.0))).isEmpty)
  }

  test("predict() blends multiple observations with W weights") {
    val d = model.predict(3, Seq((2, 2.0), (0, 1.0)))
    assert(d.isDefined)
    // dominated by the highly-correlated cont pair, so mean well above 0
    assert(d.get.mean > 0.5)
  }

  test("predict() with no usable observation is None") {
    assert(model.predict(3, Seq.empty).isEmpty)
    assert(model.predict(3, Seq((99, 1.0))).isEmpty)
  }

  test("predicted cat error rises when the worker already erred on the row") {
    val withErr = model.predict(1, Seq((0, 1.0))).get.mean
    val withOk  = model.predict(1, Seq((0, 0.0))).get.mean
    info(f"P(e1|e0=1)=$withErr%.3f vs P(e1|e0=0)=$withOk%.3f")
    assert(withErr > withOk)
  }
}
