package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.InfoGain._
import repro.core.MathUtil._
import scala.util.Random

class InfoGainSpec extends AnyFunSuite {

  // ---------------------------------------------------------------- continuous

  test("continuousGain equals the direct entropy difference") {
    val r = new Random(1)
    for (_ <- 1 to 100) {
      val tPhi = 0.01 + r.nextDouble() * 5
      val v = 0.01 + r.nextDouble() * 5
      val post = 1.0 / (1.0 / tPhi + 1.0 / v)
      val direct = differentialEntropy(tPhi) - differentialEntropy(post)
      assert(math.abs(continuousGain(tPhi, v) - direct) < 1e-9)
    }
  }

  test("continuousGain is positive") {
    val r = new Random(2)
    for (_ <- 1 to 100) {
      assert(continuousGain(0.01 + r.nextDouble() * 5, 0.01 + r.nextDouble() * 5) > 0)
    }
  }

  test("continuousGain decreases with answer variance (better workers gain more)") {
    val gains = Seq(0.1, 0.5, 1.0, 5.0, 20.0).map(v => continuousGain(1.0, v))
    assert(gains == gains.sorted.reverse)
  }

  test("continuousGain increases with current uncertainty") {
    val gains = Seq(0.1, 0.5, 1.0, 5.0).map(tPhi => continuousGain(tPhi, 1.0))
    assert(gains == gains.sorted)
  }

  test("continuousGain on an already-certain cell is ~0") {
    assert(continuousGain(1e-9, 1.0) < 1e-8)
  }

  // --------------------------------------------------------------- categorical

  test("categoricalGain with binary uniform prior matches ln2 - H_b(q)") {
    for (q <- Seq(0.55, 0.7, 0.9, 0.99)) {
      val expected = math.log(2) - (-(q * math.log(q) + (1 - q) * math.log(1 - q)))
      val got = categoricalGain(Array(0.5, 0.5), q)
      assert(math.abs(got - expected) < 1e-9, s"q=$q")
    }
  }

  test("categoricalGain is zero for an uninformative worker (q = 1/L)") {
    for (l <- 2 to 6) {
      val probs = Array.fill(l)(1.0 / l)
      assert(math.abs(categoricalGain(probs, 1.0 / l)) < 1e-9, s"L=$l")
    }
  }

  test("categoricalGain equals the expected entropy drop H(T) - sum_a P(a) H(T | a)") {
    // Eq. 6 as written: the expectation over answers of the posterior entropy
    val r = new Random(3)
    for (_ <- 1 to 50) {
      val l = 2 + r.nextInt(4)
      val raw = Array.fill(l)(0.05 + r.nextDouble())
      val probs = raw.map(_ / raw.sum)
      val q = clampProb(0.05 + r.nextDouble() * 0.9)
      val wrong = (1 - q) / (l - 1)
      val expected = (0 until l).map { a =>
        val pa = probs(a) * q + (1 - probs(a)) * wrong
        pa * shannonEntropy(answerPosterior(probs, q, a))
      }.sum
      val drop = shannonEntropy(probs) - expected
      val got = categoricalGain(probs, q)
      assert(math.abs(got - drop) < 1e-9, s"l=$l q=$q")
    }
  }

  test("categoricalGain is nonnegative") {
    val r = new Random(4)
    for (_ <- 1 to 100) {
      val l = 2 + r.nextInt(5)
      val raw = Array.fill(l)(0.01 + r.nextDouble())
      val probs = raw.map(_ / raw.sum)
      assert(categoricalGain(probs, clampProb(r.nextDouble())) > -1e-12)
    }
  }

  test("categoricalGain on a near-certain cell is ~0") {
    val probs = Array(0.9999, 0.0001)
    assert(categoricalGain(probs, 0.9) < 1e-2)
    assert(categoricalGain(probs, 0.9) < categoricalGain(Array(0.5, 0.5), 0.9))
  }

  test("categoricalGain grows with worker quality above 1/L") {
    val probs = Array(0.4, 0.3, 0.3)
    val gains = Seq(0.34, 0.5, 0.7, 0.9, 0.99).map(q => categoricalGain(probs, q))
    assert(gains == gains.sorted)
  }

  test("categoricalGain of a single-label cell is 0") {
    assert(categoricalGain(Array(1.0), 0.9) == 0.0)
  }

  // ------------------------------------------------------------------ uniform

  test("uniformEntropy dispatches by datatype") {
    val p = Array(0.25, 0.75)
    assert(uniformEntropy(isCategorical = true, p, 99.0) == shannonEntropy(p))
    assert(uniformEntropy(isCategorical = false, p, 2.0) == differentialEntropy(2.0))
  }

  // ---------------------------------------------------------------- snapshot

  /** Workers 7 and 8 answer both cells of one row; the continuous answers
    * -1 and +1 give the stats (0, 1). Alpha and beta are 1.
    */
  private def fakeSnapshot: Snapshot = {
    val columns = Seq(ColumnSpec(0, "c", 2), ColumnSpec(1, "x", 0))
    val t = Model.answerTable(columns, Seq(Answer(7, 0, 0, 0.0), Answer(8, 0, 0, 0.0),
      Answer(7, 0, 1, -1.0), Answer(8, 0, 1, 1.0)))
    new Snapshot(ResultMaps.result(t,
      contPosterior = Map((0, 1) -> (0.0, 0.5)),
      catPosterior = Map((0, 0) -> Array(0.6, 0.4)),
      phi = Map(7 -> 0.5, 8 -> 4.0)), numRows = 1, columns)
  }

  private def g(u: Int, i: Int, j: Int): Double = {
    val snap = fakeSnapshot
    Assignment.inherentGain(snap, snap.workerVariance(u), i, j)
  }

  test("inherentGain: better worker yields larger gain on both datatypes") {
    assert(g(7, 0, 0) > g(8, 0, 0)) // categorical cell
    assert(g(7, 0, 1) > g(8, 0, 1)) // continuous cell
  }

  test("inherentGain falls back to uniform/prior for unseen cells") {
    // unseen categorical cell (5,0): uniform prior -> positive gain
    assert(g(7, 5, 0) > 0)
    // unseen continuous cell (5,1): prior variance -> positive gain
    assert(g(7, 5, 1) > 0)
  }

  test("inherentGain for an unknown worker uses unit variance") {
    val unknown = g(999, 0, 1)
    assert(math.abs(unknown - continuousGain(0.5, 1.0)) < 1e-12)
  }
}
