package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.core.MathUtil._

/** ScalaCheck property suite for the numeric substrate (runs under sbt's
  * native ScalaCheck framework, independent of the ScalaTest suites).
  */
object MathUtilProps extends Properties("MathUtil") {

  property("erf odd symmetry") = Prop.forAll(Gen.choose(-5.0, 5.0)) { x =>
    math.abs(erf(x) + erf(-x)) < 1e-7
  }

  property("erf bounded by 1 in magnitude") = Prop.forAll(Gen.choose(-50.0, 50.0)) { x =>
    math.abs(erf(x)) <= 1.0
  }

  property("quality monotone in eps") =
    Prop.forAll(Gen.choose(0.1, 3.0), Gen.choose(0.1, 3.0), Gen.choose(0.01, 20.0)) {
      (e1, e2, v) =>
        val (lo, hi) = if (e1 < e2) (e1, e2) else (e2, e1)
        quality(lo, v) <= quality(hi, v)
    }

  property("softmax is a distribution") =
    Prop.forAll(Gen.listOfN(6, Gen.choose(-30.0, 30.0))) { scores =>
      val p = softmax(scores.toArray)
      math.abs(p.sum - 1.0) < 1e-9 && p.forall(x => x >= 0 && x <= 1)
    }

  property("shannon entropy nonnegative") =
    Prop.forAll(Gen.listOfN(5, Gen.choose(1e-6, 1.0))) { raw =>
      val p = raw.map(_ / raw.sum).toArray
      shannonEntropy(p) >= 0
    }

  property("delta of differential entropies equals half log variance ratio") =
    Prop.forAll(Gen.choose(0.01, 10.0), Gen.choose(0.01, 10.0)) { (v1, v2) =>
      val d = differentialEntropy(v1) - differentialEntropy(v2)
      math.abs(d - 0.5 * math.log(v1 / v2)) < 1e-9
    }

  property("pearson within [-1, 1]") =
    Prop.forAll(Gen.listOfN(8, Gen.choose(-10.0, 10.0)),
                Gen.listOfN(8, Gen.choose(-10.0, 10.0))) { (xs, ys) =>
      val m = new Moments
      xs.lazyZip(ys).foreach((x, y) => m.add(x, y))
      val r = m.correlation
      r >= -1.0 - 1e-9 && r <= 1.0 + 1e-9
    }
}
