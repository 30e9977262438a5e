package repro.baselines

import repro.core._
import repro.core.MathUtil.{argmax, clampProb}

/** GLAD [33]: worker ability `a_u` (real; negative = adversarial) and
  * per-task inverse difficulty `b_t > 0`; the probability that worker u
  * answers task t correctly is `sigma(a_u * b_t)`, wrong answers uniform
  * over remaining labels (multi-class generalization of the original binary
  * model). EM where the M-step runs gradient ascent on `a_u` and `ln b_t`,
  * each moved by the mean gradient over its answers, as in T-Crowd.
  * Categorical cells only (GLAD is a labeling model).
  */
final case class Glad(iters: Int = 8, gdSteps: Int = 4) extends InferenceMethod {
  val name = "GLAD"

  def infer(t: AnswerTable): Seq[TruthCell] = {
    val cat = t.catAnswers
    val abil = Array.fill(t.workerIds.length)(1.0)
    val lnB = new Array[Double](t.cellIds.length)
    def b(k: Int): Double = math.exp(lnB(t.cell(k)))
    def q(k: Int): Double = clampProb(1.0 / (1.0 + math.exp(-abil(t.worker(k)) * b(k))))

    var post = t.labelPosteriors(q)
    for (_ <- 0 until iters) {
      // ---- M-step: ascend E[log-lik]; d/da_u = (p - q) b, d/d ln b = (p - q) a b
      val pa = new Array[Double](t.size)
      for (k <- cat) pa(k) = post(t.cell(k))(t.value(k).toInt)
      for (_ <- 0 until gdSteps) {
        val g = new Array[Double](t.size)
        for (k <- cat) g(k) = pa(k) - q(k)
        val gA = t.meanPer(cat, t.worker, abil.length)(k => g(k) * b(k))
        val gB = t.meanPer(cat, t.cell, lnB.length)(k => g(k) * abil(t.worker(k)) * b(k))
        for (u <- abil.indices) abil(u) = math.min(6.0, math.max(-6.0, abil(u) + Glad.Lr * gA(u)))
        for (c <- lnB.indices) lnB(c) = math.min(3.0, math.max(-3.0, lnB(c) + Glad.Lr * gB(c)))
      }
      post = t.labelPosteriors(q)
    }
    t.catCells.toSeq.map(c => t.estimate(c, argmax(post(c)).toDouble))
  }
}

object Glad {
  /** Gradient-ascent learning rate on `a_u` and `ln b_t`. */
  val Lr = 0.3
}
