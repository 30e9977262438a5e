package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.MathUtil._
import scala.util.Random

class MathUtilSpec extends AnyFunSuite {

  private val eps = 1e-6
  private def samples(n: Int, lo: Double, hi: Double, seed: Long = 1L): Seq[Double] = {
    val r = new Random(seed)
    Seq.fill(n)(lo + r.nextDouble() * (hi - lo))
  }

  test("erf(0) = 0") { assert(math.abs(erf(0.0)) < eps) }
  test("erf(1) matches table value") { assert(math.abs(erf(1.0) - 0.8427008) < 1e-5) }
  test("erf(2) matches table value") { assert(math.abs(erf(2.0) - 0.9953223) < 1e-5) }
  test("erf(0.5) matches table value") { assert(math.abs(erf(0.5) - 0.5204999) < 1e-5) }
  test("erf saturates to 1") { assert(erf(6.0) > 0.999999) }

  test("erf is odd") {
    samples(200, -4, 4).foreach(x => assert(math.abs(erf(x) + erf(-x)) < 1e-7))
  }

  test("erf is monotonically increasing") {
    samples(200, -4, 3.9).foreach(x => assert(erf(x + 0.1) > erf(x)))
  }

  test("quality decreases with variance") {
    samples(100, 0.01, 50).sorted.sliding(2).foreach {
      case Seq(v1, v2) => assert(quality(1.0, v1) >= quality(1.0, v2))
      case _           =>
    }
  }

  test("quality is a probability") {
    samples(100, 1e-6, 1e6).foreach { v =>
      val q = quality(1.0, v)
      assert(q > 0 && q < 1)
    }
  }

  test("quality with tiny variance approaches 1") { assert(quality(1.0, 1e-8) > 0.999) }
  test("quality with huge variance approaches 0") { assert(quality(1.0, 1e8) < 0.001) }

  test("clampProb stays in open unit interval") {
    samples(100, -1, 2).foreach { p =>
      val c = clampProb(p)
      assert(c > 0 && c < 1)
    }
  }

  test("shannonEntropy of uniform distribution is ln(n)") {
    for (n <- 2 to 10) {
      val h = shannonEntropy(Seq.fill(n)(1.0 / n))
      assert(math.abs(h - math.log(n)) < 1e-9, s"n=$n")
    }
  }

  test("shannonEntropy of a point mass is 0") {
    assert(shannonEntropy(Seq(1.0, 0.0, 0.0)) == 0.0)
  }

  test("shannonEntropy is maximized by uniform") {
    val r = new Random(5)
    for (_ <- 1 to 100) {
      val raw = Seq.fill(4)(0.01 + r.nextDouble())
      val p = raw.map(_ / raw.sum)
      assert(shannonEntropy(p) <= math.log(4) + 1e-9)
    }
  }

  test("differentialEntropy of N(0,1) is 0.5*ln(2*pi*e)") {
    assert(math.abs(differentialEntropy(1.0) - 0.5 * math.log(2 * math.Pi * math.E)) < 1e-9)
  }

  test("differentialEntropy can be negative for small variance") {
    assert(differentialEntropy(1e-4) < 0)
  }

  test("differentialEntropy increases with variance") {
    samples(100, 0.01, 10).foreach(v => assert(differentialEntropy(v * 2) > differentialEntropy(v)))
  }

  test("softmax sums to 1 and preserves order") {
    val r = new Random(7)
    for (_ <- 1 to 100) {
      val scores = Seq.fill(5)(r.nextDouble() * 40 - 20)
      val p = softmax(scores)
      assert(math.abs(p.sum - 1.0) < 1e-9)
      assert(p.indexOf(p.max) == scores.indexOf(scores.max))
    }
  }

  test("softmax is shift-invariant") {
    val r = new Random(11)
    for (_ <- 1 to 50) {
      val s = Seq.fill(4)(r.nextDouble() * 20 - 10)
      val c = r.nextDouble() * 200 - 100
      softmax(s).zip(softmax(s.map(_ + c))).foreach { case (x, y) =>
        assert(math.abs(x - y) < 1e-9)
      }
    }
  }

  test("softmax handles extreme scores without NaN") {
    val p = softmax(Seq(1e300, -1e300, 0.0))
    assert(!p.exists(_.isNaN))
    assert(math.abs(p.head - 1.0) < 1e-12)
  }

  test("softmax of empty input is empty") { assert(softmax(Seq.empty).isEmpty) }

  test("standardNormalQuantile at known points") {
    assert(math.abs(standardNormalQuantile(0.5)) < 1e-8)
    assert(math.abs(standardNormalQuantile(0.975) - 1.959964) < 1e-4)
    assert(math.abs(standardNormalQuantile(0.025) + 1.959964) < 1e-4)
    assert(math.abs(standardNormalQuantile(0.841345) - 1.0) < 1e-3)
  }

  test("chiSquareQuantile: median of chi2(k) is roughly k - 2/3") {
    for (k <- Seq(5, 10, 50, 100)) {
      val med = chiSquareQuantile(0.5, k)
      assert(math.abs(med - (k - 2.0 / 3)) < 0.15 * k, s"k=$k med=$med")
    }
  }

  test("chiSquareQuantile: 97.5% quantile of chi2(10) near 20.48") {
    assert(math.abs(chiSquareQuantile(0.975, 10) - 20.483) < 0.35)
  }

  test("chiSquareQuantile increases with df") {
    (1 to 200).sliding(2).foreach {
      case Seq(k1, k2) => assert(chiSquareQuantile(0.975, k2) > chiSquareQuantile(0.975, k1))
      case _           =>
    }
  }

  test("chiSquareQuantile rejects df < 1") {
    intercept[IllegalArgumentException](chiSquareQuantile(0.975, 0))
  }

  test("normalPdf integrates to ~1 (trapezoid over wide range)") {
    val step = 0.01
    val s = (-800 to 800).map(i => normalPdf(i * step, 0.0, 1.5) * step).sum
    assert(math.abs(s - 1.0) < 1e-3)
  }

  test("normalPdf is maximal at the mean") {
    val r = new Random(13)
    for (_ <- 1 to 50) {
      val mu = r.nextDouble() * 6 - 3
      val v = 0.1 + r.nextDouble() * 4
      assert(normalPdf(mu, mu, v) >= normalPdf(mu + 0.5, mu, v))
    }
  }

  /** Pearson correlation of paired samples, by [[Moments.correlation]]. */
  private def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    val m = new Moments
    xs.lazyZip(ys).foreach((x, y) => m.add(x, y))
    m.correlation
  }

  test("pearson of a perfectly linear relation is ±1") {
    val xs = (1 to 20).map(_.toDouble)
    assert(math.abs(pearson(xs, xs.map(x => 3 * x + 2)) - 1.0) < 1e-9)
    assert(math.abs(pearson(xs, xs.map(x => -2 * x + 7)) + 1.0) < 1e-9)
  }

  test("pearson of constant input is 0") {
    assert(pearson(Seq(1.0, 1.0, 1.0), Seq(1.0, 2.0, 3.0)) == 0.0)
  }

  test("pearson is symmetric") {
    val r = new Random(17)
    for (_ <- 1 to 50) {
      val xs = Seq.fill(10)(r.nextDouble() * 10 - 5)
      val ys = Seq.fill(10)(r.nextDouble() * 10 - 5)
      assert(math.abs(pearson(xs, ys) - pearson(ys, xs)) < 1e-12)
    }
  }
}
