package repro.perfbench

import repro.baselines.{MajorityVote, VoteMedian}
import repro.core._
import repro.crowd.CrowdSim
import repro.experiments.Experiments
import repro.metrics.Metrics
import scala.util.control.NonFatal

/** Tests of the harness itself, run by `python3 perfbench/run.py --selftest`.
  * Exits with a non-zero status if any fails.
  */
object SelfTest {
  private var failures = 0

  private def check(name: String)(body: => Unit): Unit = {
    val ok = try { body; true } catch {
      case NonFatal(e) => Console.err.println(s"  $e"); false
      case e: AssertionError => Console.err.println(s"  $e"); false
    }
    if (!ok) failures += 1
    println(s"${if (ok) "ok  " else "FAIL"} $name")
  }

  def run(): Unit = {
    check("moduleOf takes the first repro frame outside the harness") {
      val site = Seq(
        "org.apache.spark.sql.Dataset.collect(Dataset.scala:3000)",
        "repro.metrics.Metrics$.$anonfun$errorRate$1(Metrics.scala:25)",
        "repro.core.TCrowd$.infer(TCrowd.scala:100)",
      ).mkString("\n")
      assert(JobAttribution.moduleOf(site) == "metrics.Metrics")
      assert(JobAttribution.moduleOf("repro.perfbench.Bench$.run(Main.scala:1)\n" +
        "repro.baselines.Glad.infer(Glad.scala:60)") == "baselines.Glad")
      assert(JobAttribution.moduleOf("java.lang.Thread.run(Thread.java:833)") == JobAttribution.Other)
    }

    val spark = Bench.session()
    try {
      val sim = new CrowdSim(Experiments.onlineConfig(rows = 12, seed = 5L))
      check("Metrics.evaluate's Spark jobs land in metrics.Metrics") {
        val ds = sim.dataset(spark)
        val est = MajorityVote.infer(ds)
        val tracer = new JobAttribution(spark.sparkContext)
        spark.sparkContext.addSparkListener(tracer)
        try {
          Metrics.evaluate(ds, est)
          val work = tracer.snapshot
          assert(work.get("metrics.Metrics").exists(_.jobs > 0), s"no Metrics jobs in $work")
          assert(work.keySet == Set("metrics.Metrics"), s"jobs outside metrics.Metrics: $work")
        } finally spark.sparkContext.removeSparkListener(tracer)
      }

      val nCells = sim.cfg.numRows * sim.columnSpecs.size
      val catCols = sim.columnSpecs.filter(_.isCategorical).map(_.col).toSet
      def session(strategy: AssignStrategy, cfg: SimRunConfig): Seq[SimPoint] =
        Assignment.simulate(sim, spark, strategy, cfg)

      check("TimedStrategy leaves a T-Crowd session unchanged and times its refreshes") {
        val cfg = SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = 0.5,
          tcrowd = TCrowdConfig(maxIters = 2, gdSteps = 2))
        val plain = session(new StructGainStrategy, cfg)
        val timed = new TimedStrategy(new StructGainStrategy, nCells, cfg.checkpointEvery)
        assert(timed.needsSnapshot && timed.needsCorrelation && timed.name == "Struct IG")
        val wrapped = session(timed, cfg)
        timed.end()
        assert(wrapped == plain, s"$wrapped != $plain")
        assert(timed.pickNanos.size == nCells, s"${timed.pickNanos.size} picks for $nCells cells")
        assert(timed.refreshNanos.size == plain.size,
          s"${timed.refreshNanos.size} refreshes for ${plain.size} checkpoints")
      }

      check("TimedStrategy forwards observe (CDAS session unchanged)") {
        val cfg = SimRunConfig(maxAvgAnswers = 3.0, checkpointEvery = 1.0, inference = Some(VoteMedian))
        val plain = session(new CdasStrategy(catCols), cfg)
        val timed = new TimedStrategy(new CdasStrategy(catCols), nCells, cfg.checkpointEvery)
        assert(!timed.needsSnapshot && !timed.needsCorrelation)
        val wrapped = session(timed, cfg)
        assert(wrapped == plain, s"$wrapped != $plain")
      }
    } finally spark.stop()

    println(s"selftest: ${if (failures == 0) "all passed" else s"$failures failed"}")
    if (failures > 0) sys.exit(1)
  }
}
