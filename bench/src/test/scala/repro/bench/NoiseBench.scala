package repro.bench

import repro.CrowdSpec
import repro.experiments.Experiments

/** Reproduces §6.5.2 (Figure 10, as a table): answers of the Celebrity
  * surrogate perturbed at noise levels gamma = 10%..40%. Paper claims: error
  * rate rises with gamma; T-Crowd stays stable and close to (or better than)
  * CRH on error rate and GTM on MNAD.
  */
class NoiseBench extends CrowdSpec {

  private lazy val (rows, rendered) = Experiments.noise(spark)

  private def score(g: Double, m: String) =
    rows.find(_._1 == g).get._2.find(_.method == m).get

  test("Figure 10 table renders and is archived") {
    println(rendered)
    Experiments.writeReport("fig10_noise.txt", rendered)
    assert(rows.map(_._1) == Experiments.noiseLevels)
  }

  test("error rate rises with the noise level for T-Crowd") {
    assert(score(0.4, "T-Crowd").errorRate >= score(0.1, "T-Crowd").errorRate - 0.01)
  }

  test("error rate rises with the noise level for CRH") {
    assert(score(0.4, "CRH").errorRate >= score(0.1, "CRH").errorRate - 0.01)
  }

  test("T-Crowd stays within CRH's error rate at every noise level (paper: very similar)") {
    for (g <- Experiments.noiseLevels)
      assert(score(g, "T-Crowd").errorRate <= score(g, "CRH").errorRate + 0.02, s"gamma=$g")
  }

  test("T-Crowd stays within GTM's MNAD at every noise level (paper: very similar)") {
    for (g <- Experiments.noiseLevels)
      assert(score(g, "T-Crowd").mnad <= score(g, "GTM").mnad + 0.05, s"gamma=$g")
  }

  test("metrics remain finite and sane under heavy noise") {
    for (g <- Experiments.noiseLevels; m <- Seq("T-Crowd", "CRH")) {
      val s = score(g, m)
      assert(s.errorRate >= 0 && s.errorRate <= 1)
      assert(s.mnad >= 0 && s.mnad < 3)
    }
  }
}
