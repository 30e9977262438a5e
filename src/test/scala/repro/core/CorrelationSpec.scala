package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import repro.{CrowdSpec, Oracle}
import repro.core.MathUtil.{Moments, argmax}
import scala.collection.mutable
import scala.util.Random

/** Structure-aware correlation model (paper §5.2, Tables 4/5, Eq. 7/8),
  * checked against its definitions: the errors against §5.2's, the
  * conditionals and predictions against the closed forms of known error
  * joints, the constants on hand-built moments, and the moments against
  * DuckDB's SQL.
  */
class CorrelationSpec extends CrowdSpec {
  import CorrelationSpec._

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
  private def mkTable(rows: Int, workers: Int): AnswerTable = {
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
    Model.answerTable(columns, answers.flatten)
  }

  private lazy val table = mkTable(rows = 60, workers = 6)
  private lazy val res = mkResult(table)
  private lazy val model = Correlation.estimate(res)

  private lazy val answers = table.answers

  /** The moments of column j's errors, and of the pair (j, k); the columns are at positions 0..3. */
  private def marginal(j: Int): Moments = model.marginal(j)
  private def pair(j: Int, k: Int): Moments = model.pair(j * columns.size + k)

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

  test("errors equal the map-based reference bit for bit") {
    // the reference is §5.2's definition, read through a map from cell to
    // cell id: a categorical error is 0/1 against the argmax label of the
    // cell's posterior, a continuous one the normalized answer less the
    // posterior mean; on the constant result and on one whose estimates vary
    // by cell (label i % 2 and mean 0.1 * (i % 3) on row i)
    val varied = ResultMaps.result(table,
      contPosterior = table.cellIds.map { case c @ (i, _) => c -> (0.1 * (i % 3), 0.1) }.toMap,
      catPosterior = table.cellIds.map { case c @ (i, j) =>
        c -> Array.tabulate(if (j == 0) 3 else 2)(z => if (z == i % 2) 1.0 else 0.0) }.toMap)
    val cellOf = table.cellIds.zipWithIndex.toMap
    for (r <- Seq(res, varied)) {
      val want = answers.map { a =>
        val c = cellOf((a.row, a.col))
        if (a.col <= 1) { if (argmax(r.post(c)) == a.value.toInt) 0.0 else 1.0 }
        else Model.normalize(table.stats, a.col, a.value) - r.mu(c)
      }
      assert(Correlation.errors(r).map(java.lang.Double.doubleToLongBits).toSeq ==
        want.map(java.lang.Double.doubleToLongBits).toSeq)
    }
  }

  test("marginals, pair moments and conditionals on a categorical error match DuckDB (oracle-checked)") {
    import spark.implicits._
    val err = Correlation.errors(res)
    val errs = answers.indices.map(k => (answers(k).worker, answers(k).row, answers(k).col, err(k)))
      .toDF("worker", "row", "col", "e")
    val ids = model.columns.map(_.col)
    val m = ids.size
    def present(ms: Array[Moments]): Seq[(Int, Moments)] = ms.indices.collect { case i if ms(i) != null => (i, ms(i)) }
    val e = "CAST(e AS DOUBLE)"
    Oracle.assertEquivalent(
      present(model.marginal).map { case (x, ms) => (ids(x), ms.meanX, ms.varX, ms.n) }.toDF("j", "m", "v", "n"),
      s"SELECT CAST(col AS INT) AS j, avg($e) AS m, var_pop($e) AS v, count(*) AS n FROM errs GROUP BY 1",
      "errs" -> errs)
    val pairs = "FROM errs a JOIN errs b ON a.worker = b.worker AND a.row = b.row AND a.col <> b.col"
    val (ej, ek) = ("CAST(a.e AS DOUBLE)", "CAST(b.e AS DOUBLE)")
    Oracle.assertEquivalent(
      present(model.pair).map { case (i, ms) =>
        (ids(i / m), ids(i % m), ms.meanX, ms.meanY, ms.varX, ms.varY, ms.cov, ms.correlation, ms.n) }
        .toDF("j", "k", "muj", "muk", "vj", "vk", "cov", "w", "n"),
      s"""SELECT CAST(a.col AS INT) AS j, CAST(b.col AS INT) AS k, avg($ej) AS muj, avg($ek) AS muk,
         |  var_pop($ej) AS vj, var_pop($ek) AS vk, covar_pop($ej, $ek) AS cov,
         |  CASE WHEN var_pop($ej) <= 0 OR var_pop($ek) <= 0 THEN 0
         |       ELSE covar_pop($ej, $ek) / sqrt(var_pop($ej) * var_pop($ek)) END AS w, count(*) AS n
         |$pairs GROUP BY 1, 2""".stripMargin,
      "errs" -> errs)
    Oracle.assertEquivalent(
      present(model.cond).map { case (i, ms) => (ids(i / 2 / m), ids(i / 2 % m), i % 2, ms.meanX, ms.varX, ms.n) }
        .toDF("j", "k", "ek", "m", "v", "n"),
      s"""SELECT CAST(a.col AS INT) AS j, CAST(b.col AS INT) AS k, CAST($ek AS INT) AS ek,
         |  avg($ej) AS m, var_pop($ej) AS v, count(*) AS n
         |$pairs WHERE CAST(b.col AS INT) IN (0, 1) GROUP BY 1, 2, 3""".stripMargin,
      "errs" -> errs)
  }

  test("conditional and predict recover Table 5's closed forms and Eq. 7/8") {
    val checks = mutable.Map.empty[String, Int].withDefaultValue(0)
    var worst = 0.0
    val params = Test.Parameters.default.withMinSuccessfulTests(50).withInitialSeed(20180416L)
    val res = Test.check(params, Prop.forAllNoShrink(joints) { jt =>
      val cs = closedFormChecks(jt)
      cs.foreach(c => checks(c.kase) += 1)
      worst = (worst +: cs.map(c => math.abs(c.got - c.want) / c.bound)).max
      val misses = cs.filterNot(_.holds)
      misses.isEmpty :| s"${misses.take(5).mkString("; ")} on $jt"
    })
    info(s"${res.succeeded} joints; checks per case: ${checks.toSeq.sorted.map { case (c, n) => s"$c $n" }.mkString(", ")}" +
      f"; largest |got - closed form| / bound $worst%.3f")
    assert(res.passed, res.status)
    assert(res.succeeded >= 50)
    assert(checks.keySet == Set("(a)", "(b)", "(c)", "(d)", "Eq. 7/8"), checks.keySet)
  }

  test("conditional and predict apply each constant as coded") {
    // columns at positions 0..3: c cat(2), x, y, w cont; m = 4
    val cols = Seq(ColumnSpec(0, "c", 2), ColumnSpec(1, "x", 0), ColumnSpec(2, "y", 0), ColumnSpec(3, "w", 0))
    def ms(n: Long, meanX: Double, varX: Double, meanY: Double = 0, varY: Double = 0, cov: Double = 0): Moments = {
      val s = new Moments
      s.n = n; s.meanX = meanX; s.meanY = meanY; s.cxx = varX * n; s.cyy = varY * n; s.cxy = cov * n
      s
    }
    val pair = new Array[Moments](16)
    pair(1 * 4 + 0) = ms(10, 1.5, 0.4, meanY = 0.3, varY = 0.21)                // (x, c): cov 0, W = 0
    pair(1 * 4 + 2) = ms(10, 1.0, 4.0, meanY = 2.0, varY = 1.0, cov = -2.0)     // (x, y): rho = W = -1
    pair(1 * 4 + 3) = ms(10, 1.0, 0.0, meanY = 5.0)                             // (x, w): both constant
    val cond = new Array[Moments](32)
    cond((1 * 4 + 0) * 2) = ms(7, 0.2, 0.5)     // x | e_c = 0
    cond((1 * 4 + 0) * 2 + 1) = ms(3, 1.5, 0.0) // x | e_c = 1: constant
    val m = new CorrelationModel(cols, Array(ms(10, 0.3, 0.21), ms(10, 0.59, 0.8), null, null), pair, cond)

    // ek > 0.5 reads e_c = 1; ek = 0.5 reads e_c = 0
    assert(m.conditional(1, 0, 0.5).contains(CondDist(0.2, 0.5)))
    assert(m.conditional(1, 0, Math.nextUp(0.5)).contains(CondDist(1.5, 0.0)))
    // case (b), rho clamped to -0.999: mean 1 + (-2 / 1) * (3 - 2), variance (1 - 0.999^2) * 4
    assert(m.conditional(1, 2, 3.0).contains(CondDist(-1.0, (1 - 0.999 * 0.999) * 4.0)))
    // case (b) on constant errors: both variances floored at 1e-9, so the
    // slope is 0 / 1e-9 and the variance (1 - 0) * 1e-9
    assert(m.conditional(1, 3, 7.0).contains(CondDist(1.0, 1e-9)))
    // case (d), P(e_c = 1 | e_x = 1.501) by Bayes: e_x | e_c = 1 has variance 0,
    // floored at 1e-6; e_x | e_c = 0 is N(0.2, 0.5); P(e_c = 1) = 0.3
    val l1 = 0.3 * math.exp(-0.5) / math.sqrt(2 * math.Pi * 1e-6) // (1.501 - 1.5)^2 / (2e-6) = 0.5
    val l0 = 0.7 * math.exp(-1.301 * 1.301 / 1.0) / math.sqrt(2 * math.Pi * 0.5)
    val pe = l1 / (l1 + l0)
    val d = m.conditional(0, 1, 1.501).get
    assert(math.abs(d.mean - pe) <= 1e-12 && math.abs(d.variance - pe * (1 - pe)) <= 1e-12, s"$d vs $pe")
    // Eq. 7/8: |W| = 0 is floored at 1e-3, |W| = |-1| weighs 1
    val (w0, w1) = (1e-3, 1.0)
    val mean = (w0 * 1.5 + w1 * -1.0) / (w0 + w1)
    val second = (w0 * (0.0 + 1.5 * 1.5) + w1 * ((1 - 0.999 * 0.999) * 4.0 + 1.0)) / (w0 + w1)
    val mix = m.predict(1, Seq((0, 1.0), (2, 3.0))).get
    assert(math.abs(mix.mean - mean) <= 1e-12 && math.abs(mix.variance - (second - mean * mean)) <= 1e-12, mix)
    // Eq. 7/8 of one conditional with variance 0: floored at 1e-9
    val one = m.predict(1, Seq((0, 1.0))).get
    assert(math.abs(one.mean - 1.5) <= 1e-12 && one.variance == 1e-9, one)
  }

  test("conditional and predict do not depend on the schema order") {
    val reordered = Correlation.estimate(mkResult(Model.answerTable(columns.reverse, answers)))
    val r = new Random(5)
    val ids = Seq(0, 1, 2, 3, 99)
    def error(k: Int): Double = if (k <= 1) r.nextInt(2).toDouble else 3 * r.nextGaussian()
    for (_ <- 0 until 300) {
      val obs = List.fill(r.nextInt(4))(ids(r.nextInt(ids.size))).map(k => (k, error(k)))
      for (j <- ids) {
        assert(reordered.predict(j, obs) == model.predict(j, obs), s"j=$j obs=$obs")
        for ((k, ek) <- obs) assert(reordered.conditional(j, k, ek) == model.conditional(j, k, ek), s"j=$j k=$k")
      }
    }
  }

  test("a pair of constant errors gets W = 0") {
    // three (worker, row) contexts whose errors on columns 2 and 3 are all 0.1
    val constant = Model.answerTable(columns, for (i <- 0 until 3; j <- Seq(2, 3)) yield Answer(0, i, j, 0.1))
    val m = Correlation.estimate(mkResult(constant))
    assert(m.marginal(2).varX == 0.0)
    assert(m.pair(2 * 4 + 3).correlation == 0.0 && m.pair(3 * 4 + 2).correlation == 0.0)
  }

  test("marginal error distributions are estimated per attribute") {
    assert(model.marginal.forall(_ != null))
    // cat marginal means are error rates in (0,1)
    assert(marginal(0).meanX > 0.2 && marginal(0).meanX < 0.6)
    // cont marginal near N(0,1)-ish
    assert(math.abs(marginal(2).meanX) < 0.2)
  }

  test("W_jk is strongly positive for the correlated continuous pair") {
    val w = pair(3, 2).correlation
    info(f"W(3,2) = $w%.3f")
    assert(w > 0.6)
  }

  test("W_jk is strongly positive for the co-failing categorical pair") {
    val w = pair(1, 0).correlation
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
    assert(atPlus.variance < marginal(3).varX * 0.5)
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

object CorrelationSpec {

  /** Every moment of `m`, field by field: two estimates are the same model
    * when these are equal.
    */
  def momentsOf(m: CorrelationModel): Seq[Any] = {
    def fields(ms: Array[Moments]) = ms.toSeq.map(s => Option(s).map(s => (s.n, s.meanX, s.meanY, s.cxx, s.cyy, s.cxy)))
    Seq(m.columns, fields(m.marginal), fields(m.pair), fields(m.cond))
  }

  /** A joint of the errors of five attributes in which each case of paper
    * Table 5 has a closed form, in raw units. Block 1: `e_A ~ Bernoulli(pA)`,
    * `e_B | e_A = a ~ Bernoulli(b(a))`, `e_X | e_A = a ~ N(mu(a), sd(a)^2)`.
    * Block 2, independent of block 1: `(e_Y, e_Z)` bivariate normal with
    * correlation `rho`. On each row the truth of continuous column X, Y or Z
    * is uniform on `[0, scale)`, so the columns' answer sds differ; the
    * draws use `seed`.
    */
  final case class Joint(pA: Double, b: Seq[Double], mu: Seq[Double], sd: Seq[Double], muYZ: Seq[Double],
                         sdYZ: Seq[Double], rho: Double, scale: Seq[Double], seed: Long)

  val joints: Gen[Joint] = for {
    pA    <- Gen.choose(0.25, 0.75)
    b     <- Gen.listOfN(2, Gen.choose(0.1, 0.9))
    mu    <- Gen.listOfN(2, Gen.choose(-2.0, 2.0))
    sd    <- Gen.listOfN(2, Gen.choose(0.5, 2.0))
    muYZ  <- Gen.listOfN(2, Gen.choose(-2.0, 2.0))
    sdYZ  <- Gen.listOfN(2, Gen.choose(0.5, 2.0))
    rho   <- Gen.choose(-0.9, 0.9)
    scale <- Gen.listOfN(3, Gen.choose(1.0, 50.0))
    seed  <- Gen.long
  } yield Joint(pA, b, mu, sd, muYZ, sdYZ, rho, scale, seed)

  // column ids of A (3 labels), B (2 labels), X, Y and Z, in schema order
  private val (colA, colB, colX, colY, colZ) = (4, 0, 2, 7, 1)
  private val schema = Seq(ColumnSpec(colA, "a", 3), ColumnSpec(colB, "b", 2), ColumnSpec(colX, "x", 0),
                           ColumnSpec(colY, "y", 0), ColumnSpec(colZ, "z", 0))
  private val (rows, workers) = (1000, 8)
  /** Contexts: each worker answers every attribute of its row once. */
  private val n = rows * workers

  /** One closed-form comparison of a case of Table 5 or of Eq. 7/8: `got`
    * must lie within `bound` of `want`.
    */
  final case class Check(kase: String, what: String, got: Double, want: Double, bound: Double) {
    def holds: Boolean = math.abs(got - want) <= bound
    override def toString: String = s"$kase $what: got $got, closed form $want +- $bound"
  }

  /** The sampling bound of an estimate `f(x)` of `f` at population inputs
    * `x`, each input estimated with standard error `se`: 5 standard errors
    * per input, so that every estimated input lies in its range except
    * with probability 6e-7 under the normal approximation, and `f` moved by
    * each input alone across its range, summed over the inputs (the first
    * order change of `f` when they all move).
    */
  private def bound(x: Seq[Double], se: Seq[Double])(f: Seq[Double] => Double): Double =
    x.indices.map(i => Seq(-5.0, 5.0).map(s => math.abs(f(x.updated(i, x(i) + s * se(i))) - f(x))).max).sum

  // The standard errors of the estimated inputs, from the draws: of a mean,
  // the draws' sd over the root of their count; of a population variance,
  // the same of the squared deviations (sqrt((m4 - var^2) / k)); of a Pearson
  // W, the same of its influence z_x z_y - W (z_x^2 + z_y^2) / 2 over the
  // standardized pairs (the delta method).
  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size
  private def se(xs: Seq[Double]): Double = { val m = mean(xs); math.sqrt(mean(xs.map(x => (x - m) * (x - m))) / xs.size) }
  private def seVar(xs: Seq[Double]): Double = { val m = mean(xs); se(xs.map(x => (x - m) * (x - m))) }
  private def seW(xs: Seq[Double], ys: Seq[Double]): Double = {
    def z(vs: Seq[Double]) = { val m = mean(vs); val s = math.sqrt(mean(vs.map(v => (v - m) * (v - m)))); vs.map(v => (v - m) / s) }
    val (zx, zy) = (z(xs), z(ys))
    val w = mean(zx.lazyZip(zy).map(_ * _))
    se(zx.lazyZip(zy).map((a, b) => a * b - w * (a * a + b * b) / 2))
  }

  private def pdf(t: Double, m: Double, v: Double): Double = math.exp(-(t - m) * (t - m) / (2 * v)) / math.sqrt(2 * math.Pi * v)

  /** Eq. 7/8 of conditionals `(W, mean, variance)`: weights |W| floored at 1e-3. */
  private def mixture(parts: Seq[(Double, Double, Double)]): (Double, Double) = {
    val w = parts.map(p => math.max(math.abs(p._1), 1e-3))
    val mean = parts.lazyZip(w).map((p, wk) => wk * p._2).sum / w.sum
    val second = parts.lazyZip(w).map((p, wk) => wk * (p._3 + p._2 * p._2)).sum / w.sum
    (mean, math.max(second - mean * mean, 1e-9))
  }

  /** An error of block 1 as `f(a, b) e_X^p` in state (e_A, e_B) = (a, b), and its draws. */
  private final case class Attr(col: Int, f: (Int, Int) => Double, p: Int, draws: IndexedSeq[Double])

  /** Draws `rows * workers` contexts from `jt`, builds their answer table and
    * the result whose estimates are the truths (label 0 of a categorical
    * cell: a wrong answer takes label 1 or 2; the normalized truth of a
    * continuous one), estimates the model, and compares each case of Table 5
    * and Eq. 7/8 with its closed form. The errors are then the draws over
    * their column's answer sd from `t.stats` (a continuous answer is truth
    * plus error), so the closed forms are taken in that normalized space.
    */
  def closedFormChecks(jt: Joint): Seq[Check] = {
    val r = new Random(jt.seed)
    val truth = Array.fill(rows)(jt.scale.map(_ * r.nextDouble()))
    // context c is worker c % workers on row c / workers: (e_A, e_B, e_X, e_Y, e_Z)
    val draws = IndexedSeq.fill(n) {
      val a = if (r.nextDouble() < jt.pA) 1 else 0
      val (g1, g2) = (r.nextGaussian(), r.nextGaussian())
      (a, if (r.nextDouble() < jt.b(a)) 1 else 0, jt.mu(a) + jt.sd(a) * r.nextGaussian(), jt.muYZ(0) + jt.sdYZ(0) * g1,
        jt.muYZ(1) + jt.sdYZ(1) * (jt.rho * g1 + math.sqrt(1 - jt.rho * jt.rho) * g2))
    }
    val answers = draws.indices.flatMap { c =>
      val ((a, bb, x, y, z), u, i) = (draws(c), c % workers, c / workers)
      Seq(Answer(u, i, colA, if (a == 1) 1.0 + r.nextInt(2) else 0.0), Answer(u, i, colB, bb.toDouble),
          Answer(u, i, colX, truth(i)(0) + x), Answer(u, i, colY, truth(i)(1) + y), Answer(u, i, colZ, truth(i)(2) + z))
    }
    val t = Model.answerTable(schema, answers)
    val cont = Seq(colX, colY, colZ)
    val res = ResultMaps.result(t,
      contPosterior = t.cellIds.collect { case c @ (i, j) if cont.contains(j) =>
        c -> (Model.normalize(t.stats, j, truth(i)(cont.indexOf(j))), 0.1) }.toMap,
      catPosterior = t.cellIds.collect { case c @ (_, j) if !cont.contains(j) => c -> Array.tabulate(t.colLabels(t.colPos(j)))(z => if (z == 0) 1.0 else 0.0) }.toMap)
    val model = Correlation.estimate(res)
    val checks = Seq.newBuilder[Check]
    def check(kase: String, what: String, d: Option[CondDist], want: (Double, Double), bounds: (Double, Double)): Unit = {
      val got = d.getOrElse(CondDist(Double.NaN, Double.NaN))
      checks += Check(kase, s"$what mean", got.mean, want._1, bounds._1)
      checks += Check(kase, s"$what variance", got.variance, want._2, bounds._2)
    }

    // the normalized parameters: e_X | e_A = a ~ N(mx(a), vx(a)), and e_Y, e_Z
    val (sx, sy, sz) = (t.stats(colX)._2, t.stats(colY)._2, t.stats(colZ)._2)
    val mx = jt.mu.map(_ / sx)
    val vx = jt.sd.map(s => s * s / sx / sx)
    val (my, mz) = (jt.muYZ(0) / sy, jt.muYZ(1) / sz)
    val (vy, vz) = (jt.sdYZ(0) * jt.sdYZ(0) / sy / sy, jt.sdYZ(1) * jt.sdYZ(1) / sz / sz)

    // Block 1: state (a, b) has probability P(a) P(b | a), and E[e_X^p | a]
    // is 1, mx(a) or mx(a)^2 + vx(a) for p = 0, 1, 2
    type Event = (Int, Int) => Boolean
    val all: Event = (_, _) => true
    def prob(a: Int, bb: Int): Double = (if (a == 1) jt.pA else 1 - jt.pA) * (if (bb == 1) jt.b(a) else 1 - jt.b(a))
    def expect(f: (Int, Int) => Double, p: Int, on: Event): Double = {
      val states = for (a <- 0 to 1; bb <- 0 to 1 if on(a, bb)) yield (a, bb)
      states.map { case (a, bb) => prob(a, bb) * f(a, bb) * Seq(1.0, mx(a), mx(a) * mx(a) + vx(a))(p) }.sum /
        states.map { case (a, bb) => prob(a, bb) }.sum
    }
    val eA = Attr(colA, (a, _) => a.toDouble, 0, draws.map(_._1.toDouble))
    val eB = Attr(colB, (_, bb) => bb.toDouble, 0, draws.map(_._2.toDouble))
    val eX = Attr(colX, (_, _) => 1.0, 1, draws.map(_._3 / sx))
    def is(k: Attr, e: Int): Event = (a, bb) => k.f(a, bb) == e
    def mu(v: Attr, on: Event): Double = expect(v.f, v.p, on)
    def variance(v: Attr, on: Event): Double = expect((a, bb) => v.f(a, bb) * v.f(a, bb), 2 * v.p, on) - mu(v, on) * mu(v, on)
    /** The draws of v in the contexts of the event. */
    def on(v: Attr, ev: Event): IndexedSeq[Double] = draws.indices.collect { case c if ev(draws(c)._1, draws(c)._2) => v.draws(c) }
    /** Pearson W of (u, v) over all contexts, and its standard error. */
    def pearson(u: Attr, v: Attr): (Double, Double) = (
      (expect((a, bb) => u.f(a, bb) * v.f(a, bb), u.p + v.p, all) - mu(u, all) * mu(v, all)) /
        math.sqrt(variance(u, all) * variance(v, all)), seW(u.draws, v.draws))
    /** Mean and variance of e_X given e_k = e, and their standard errors. */
    def xGiven(k: Attr, e: Int): (Seq[Double], Seq[Double]) = {
      val xs = on(eX, is(k, e))
      (Seq(mu(eX, is(k, e)), variance(eX, is(k, e))), Seq(se(xs), seVar(xs)))
    }

    // (a) cat|cat: e_B | e_A and e_A | e_B, directly estimated Bernoulli means;
    //     |p^(1 - p^) - p(1 - p)| <= |p^ - p|, so the variance shares the mean's bound
    for ((j, k) <- Seq((eB, eA), (eA, eB)); e <- 0 to 1) {
      val (p, b) = (mu(j, is(k, e)), 5 * se(on(j, is(k, e))))
      check("(a)", s"e_${j.col} | e_${k.col} = $e", model.conditional(j.col, k.col, e), (p, p * (1 - p)), (b, b))
    }
    // (c) cont|cat: e_X | e_A (normal) and e_X | e_B (a mixture of two normals)
    for (k <- Seq(eA, eB); e <- 0 to 1) {
      val (x, s) = xGiven(k, e)
      check("(c)", s"e_$colX | e_${k.col} = $e", model.conditional(colX, k.col, e), (x(0), x(1)), (5 * s(0), 5 * s(1)))
    }
    // (b) cont|cont, both ways, at one sd either side of the conditioning mean:
    //     E = m_j + rho sd_j / sd_k (t - m_k), Var = (1 - rho^2) v_j; the
    //     regression's prediction has se tau sqrt((1 + (t - m_k)^2 / v_k) / n)
    //     and its residual variance tau^2 sqrt(2 / n), tau^2 = (1 - rho^2) v_j
    for (((tj, mj, vj), (tk, mk, vk)) <- Seq(((colZ, mz, vz), (colY, my, vy)), ((colY, my, vy), (colZ, mz, vz)));
         t <- Seq(mk - math.sqrt(vk), mk + math.sqrt(vk))) {
      val tau2 = (1 - jt.rho * jt.rho) * vj
      val seM = math.sqrt(tau2 * (1 + (t - mk) * (t - mk) / vk) / n)
      check("(b)", f"e_$tj | e_$tk = $t%.3f", model.conditional(tj, tk, t),
        (mj + jt.rho * math.sqrt(vj / vk) * (t - mk), tau2), (5 * seM, 5 * tau2 * math.sqrt(2.0 / n)))
    }
    // (d) cat|cont: P(e_A = 1 | e_X = t) by Bayes from P(e_A = 1) and the
    //     normals e_X | e_A; inputs (pA, m1, v1, m0, v0), each with its se
    val ((x1, s1), (x0, s0)) = (xGiven(eA, 1), xGiven(eA, 0))
    val (bayesIn, bayesSe) = (jt.pA +: (x1 ++ x0), se(eA.draws) +: (s1 ++ s0))
    def bayes(t: Double)(x: Seq[Double]): Double = {
      val (l1, l0) = (x(0) * pdf(t, x(1), x(2)), (1 - x(0)) * pdf(t, x(3), x(4)))
      l1 / (l1 + l0)
    }
    for (t <- Seq(mx(0), mx(1), (mx(0) + mx(1)) / 2)) {
      val p = bayes(t)(bayesIn)
      check("(d)", f"e_$colA | e_$colX = $t%.3f", model.conditional(colA, colX, t), (p, p * (1 - p)),
        (bound(bayesIn, bayesSe)(bayes(t)), bound(bayesIn, bayesSe)(x => bayes(t)(x) * (1 - bayes(t)(x)))))
    }
    // Eq. 7/8, a continuous target: e_X given e_A = ea and e_B = eb, two
    // case (c) conditionals weighed by |W_XA| and |W_XB|
    val (wXA, wXB, wAB) = (pearson(eX, eA), pearson(eX, eB), pearson(eA, eB))
    for (ea <- 0 to 1; eb <- 0 to 1) {
      val ((xa, sa), (xb, sb)) = (xGiven(eA, ea), xGiven(eB, eb))
      val (in, inSe) = ((wXA._1 +: xa) ++ (wXB._1 +: xb), (wXA._2 +: sa) ++ (wXB._2 +: sb))
      def f(x: Seq[Double]) = mixture(Seq((x(0), x(1), x(2)), (x(3), x(4), x(5))))
      check("Eq. 7/8", s"e_$colX | e_$colA = $ea, e_$colB = $eb", model.predict(colX, Seq((colA, ea.toDouble), (colB, eb.toDouble))),
        f(in), (bound(in, inSe)(f(_)._1), bound(in, inSe)(f(_)._2)))
    }
    // Eq. 7/8, a categorical target: e_A given e_B = eb (case (a)) and e_X = t
    // (case (d)), weighed by |W_AB| and |W_AX|
    for (eb <- 0 to 1; t <- Seq(mx(0), mx(1))) {
      val in = Seq(wAB._1, mu(eA, is(eB, eb)), wXA._1) ++ bayesIn
      val inSe = Seq(wAB._2, se(on(eA, is(eB, eb))), wXA._2) ++ bayesSe
      def f(x: Seq[Double]) = {
        val pd = bayes(t)(x.drop(3))
        mixture(Seq((x(0), x(1), x(1) * (1 - x(1))), (x(2), pd, pd * (1 - pd))))
      }
      check("Eq. 7/8", f"e_$colA | e_$colB = $eb, e_$colX = $t%.3f", model.predict(colA, Seq((colB, eb.toDouble), (colX, t))),
        f(in), (bound(in, inSe)(f(_)._1), bound(in, inSe)(f(_)._2)))
    }
    checks.result()
  }
}
