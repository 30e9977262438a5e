package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.core.AssignmentReference.{shannonEntropy => boxedEntropy}
import repro.core.MathUtil.shannonEntropy

/** The allocation-free categorical gain against the formula it replaced
  * ([[AssignmentReference.categoricalGain]]), compared bit for bit.
  */
object InfoGainProps extends Properties("InfoGain") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(2000)

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  /** A label distribution with zeros: each entry is 0, tiny, or uniform, normalized. */
  private val distribution: Gen[Array[Double]] = for {
    l   <- Gen.choose(2, 40)
    raw <- Gen.listOfN(l, Gen.frequency(3 -> Gen.const(0.0), 1 -> Gen.const(1e-300),
                                         6 -> Gen.choose(0.0, 1.0)))
    hot <- Gen.choose(0, l - 1)
  } yield {
    val a = raw.toArray
    if (a.sum == 0) a(hot) = 1.0
    val s = a.sum
    a.map(_ / s)
  }

  /** q near the clamp bounds, near 1/L, or anywhere in between. */
  private def quality(l: Int): Gen[Double] = Gen.oneOf(
    Gen.choose(0.0, 2e-9), Gen.choose(1.0 - 2e-9, 1.0),
    Gen.choose(1.0 / l - 1e-9, 1.0 / l + 1e-9), Gen.const(1.0 / l), Gen.choose(0.0, 1.0))

  property("categoricalGain and shannonEntropy(Array) equal the boxed formulas bit for bit") =
    Prop.forAll(distribution.flatMap(p => quality(p.length).map(q => (p, q)))) { case (probs, q) =>
      val gain = InfoGain.categoricalGain(probs, q)
      val want = AssignmentReference.categoricalGain(probs, q)
      val posterior = InfoGain.answerPosterior(probs, q, 0)
      (bits(gain) == bits(want)) :| s"gain $gain, reference $want" &&
        (bits(shannonEntropy(probs)) == bits(boxedEntropy(probs))) :| "entropy" &&
        (bits(shannonEntropy(posterior)) == bits(boxedEntropy(posterior))) :|
          "posterior entropy"
    }

  property("mutualInformation equals categoricalGain to 1e-12, far inside the pick's slack") =
    Prop.forAll(distribution.flatMap(p => quality(p.length).map(q => (p, q)))) { case (probs, q) =>
      val gain = InfoGain.categoricalGain(probs, q)
      val mi = InfoGain.mutualInformation(probs, q)
      (math.abs(mi - gain) <= 1e-12) :| s"mutual information $mi, gain $gain"
    }
}
