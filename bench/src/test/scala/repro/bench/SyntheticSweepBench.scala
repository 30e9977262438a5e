package repro.bench

import repro.CrowdSpec
import repro.experiments.Experiments
import repro.experiments.Experiments.Score

/** Reproduces the §6.5.1 synthetic sweeps (Figures 7/8/9, as tables):
  * varying the number of columns M, the categorical ratio R, and the average
  * difficulty mu{alpha_i beta_j}. Paper claims: more columns -> better
  * inference (more data per worker); the ratio barely matters; higher
  * difficulty degrades everyone; T-Crowd dominates CRH/CATD throughout.
  * (The paper averages 100 generations; we run one seeded generation per
  * point — see EXPERIMENTS.md.)
  */
class SyntheticSweepBench extends CrowdSpec {

  private lazy val (mSweep, mRendered) = Experiments.sweep(spark, Experiments.columnSweep)
  private lazy val (rSweep, rRendered) = Experiments.sweep(spark, Experiments.ratioSweep)
  private lazy val (dSweep, dRendered) = Experiments.sweep(spark, Experiments.difficultySweep)

  private def tcrowd(rows: Seq[(String, Seq[Score])], key: String): Score =
    rows.find(_._1 == key).get._2.find(_.method == "T-Crowd").get

  test("Figure 7 sweep renders and is archived") {
    println(mRendered)
    Experiments.writeReport("fig7_columns.txt", mRendered)
    assert(mSweep.size == 3)
  }

  test("more columns improve T-Crowd's MNAD (Fig 7 trend)") {
    assert(tcrowd(mSweep, "M=20").mnad <= tcrowd(mSweep, "M=5").mnad + 0.02)
  }

  test("T-Crowd dominates CRH and CATD at every M (within slack)") {
    for ((key, scores) <- mSweep; m <- Seq("CRH", "CATD")) {
      val base = scores.find(_.method == m).get
      val tc = scores.find(_.method == "T-Crowd").get
      assert(tc.mnad <= base.mnad + 0.02, s"$key/$m mnad")
      assert(tc.errorRate <= base.errorRate + 0.02, s"$key/$m error")
    }
  }

  test("Figure 8 sweep renders and is archived") {
    println(rRendered)
    Experiments.writeReport("fig8_ratio.txt", rRendered)
  }

  test("error rate is stable across the categorical ratio (Fig 8 trend)") {
    val ers = Seq("R=0.5", "R=1.0").map(k => tcrowd(rSweep, k).errorRate)
    assert(math.abs(ers(0) - ers(1)) < 0.12)
  }

  test("all-continuous and all-categorical corners produce valid metrics") {
    assert(tcrowd(rSweep, "R=0.0").errorRate.isNaN)
    assert(tcrowd(rSweep, "R=0.0").mnad > 0)
    assert(tcrowd(rSweep, "R=1.0").mnad.isNaN)
    assert(tcrowd(rSweep, "R=1.0").errorRate >= 0)
  }

  test("Figure 9 sweep renders and is archived") {
    println(dRendered)
    Experiments.writeReport("fig9_difficulty.txt", dRendered)
  }

  test("higher difficulty degrades every method (Fig 9 trend)") {
    for (m <- Seq("T-Crowd", "CRH", "CATD")) {
      val easy = dSweep.find(_._1 == "mu=0.5").get._2.find(_.method == m).get
      val hard = dSweep.find(_._1 == "mu=3.0").get._2.find(_.method == m).get
      assert(hard.errorRate >= easy.errorRate - 0.02, s"$m error")
      assert(hard.mnad >= easy.mnad - 0.02, s"$m mnad")
    }
  }

  test("T-Crowd's edge is clearest on easy tasks (Fig 9 observation)") {
    val tcEasy = tcrowd(dSweep, "mu=0.5")
    val crhEasy = dSweep.find(_._1 == "mu=0.5").get._2.find(_.method == "CRH").get
    assert(tcEasy.mnad <= crhEasy.mnad + 0.02)
  }
}
