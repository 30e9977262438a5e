package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.crowd.{CrowdSim, Surrogates}
import repro.experiments.Experiments
import repro.metrics.Metrics
import scala.collection.mutable
import scala.util.Random

/** One benchmark workload. An op is the unit a user waits for: a pass over
  * the Table 7 methods, or one online assignment session. Each op checks its
  * own outputs and records its timings.
  */
trait Workload {
  /** (Re)generates and caches the inputs. Called several times. */
  def setUp(): Unit
  /** Runs one op. Returns the labels of outputs that did not match. */
  def runOp(): Seq[String]
  /** An unmeasured op to run once before the measured ones, if any; returns
    * like [[runOp]].
    */
  def warmUp: Option[() => Seq[String]]
  /** Typical duration of one op on a 4-vCPU host; a run measures
    * `--seconds / nominalOpSeconds` ops (at least one).
    */
  def nominalOpSeconds: Double

  /** Median wall-clock of one op. */
  def wallSeconds: Double
  /** Median CPU time of the JVM process during one op. */
  def cpuSeconds: Double
  /** Median T-Crowd op (Table 7) or checkpoint refresh (online). */
  def tcrowdSeconds: Double
  /** Error Rate and MNAD of the last T-Crowd output. */
  def quality: (Double, Double)

  /** Per-op T-Crowd iterations and converged runs, when `TCrowd.infer` is called directly. */
  def tcrowdIterations: Double = 0.0
  def tcrowdConverged: Double = 0.0
  /** Times (ns) of the online picks of the measured ops. */
  def pickNanos: Seq[Long] = Seq.empty
}

object Workload {
  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of the whole JVM process, all threads, in seconds. */
  def processCpuSeconds: Double = os.getProcessCpuTime / 1e9

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else Stats.quantile(xs, 0.5)

  /** Equal at the 4 decimals the bench tables print (NaN = "/"). */
  def samePrinted(a: Double, b: Double): Boolean =
    (a.isNaN && b.isNaN) || (!a.isNaN && !b.isNaN && math.round(a * 1e4) == math.round(b * 1e4))
}

/** Table 7 on the Celebrity surrogate (6,090 answers, 3 categorical and 4
  * continuous columns). One op is a pass over all 11 methods, each an
  * `infer` plus `Metrics.evaluate`. The EM methods run 2 iterations
  * (T-Crowd: 2 iterations, 2 gradient steps) so that a pass fits a run; the
  * iteration bodies are the same as at the Table 7 settings.
  */
final class Table7Celebrity(spark: SparkSession, seed: Long) extends Workload {
  import Table7Celebrity._

  private val tc = TCrowdConfig(maxIters = Iters, gdSteps = 2)
  private def tcOp(name: String, f: (CrowdDataset, TCrowdConfig) => TCrowdResult): MethodOp =
    MethodOp(name, ds => { val r = f(ds, tc); (r.estimatesLocal, Some(r)) })
  private def methodOp(m: InferenceMethod): MethodOp =
    MethodOp(m.name, ds => (m.infer(ds), None))

  // The pass runs cold, so an op's time depends on what ran before it; only
  // the order of the baselines is drawn from the seed, and the T-Crowd
  // variants always close the pass.
  private val ops: Seq[MethodOp] = new Random(seed).shuffle(Seq(
    methodOp(Crh(Iters)),
    methodOp(Catd(Iters)),
    methodOp(MajorityVote),
    methodOp(DawidSkene(Iters)),
    methodOp(Glad(Iters, gdSteps = 2)),
    methodOp(ZenCrowd(Iters)),
    methodOp(MedianBaseline),
    methodOp(Gtm(Iters)),
  )) ++ Seq(
    tcOp("TC-onlyCate", TCrowd.inferOnlyCategorical),
    tcOp("TC-onlyCont", TCrowd.inferOnlyContinuous),
    tcOp("T-Crowd", TCrowd.infer),
  )

  private var ds: CrowdDataset = _
  private val methodSecs = mutable.Map.empty[String, mutable.Buffer[Double]]
  private val methodCpu = mutable.Map.empty[String, mutable.Buffer[Double]]
  private val tcRuns = mutable.Buffer.empty[TCrowdResult]
  private var passes = 0
  private var lastQuality = (Double.NaN, Double.NaN)

  def setUp(): Unit = {
    if (ds != null) ds.answers.unpersist(blocking = true)
    val d = Surrogates.celebrity(spark)
    ds = d.copy(answers = d.answers.cache())
    ds.answers.count()
  }

  def runOp(): Seq[String] = {
    passes += 1
    ops.flatMap { op =>
      val t0 = System.nanoTime()
      val c0 = Workload.processCpuSeconds
      val (est, res) = op.run(ds)
      val (er, mn) = Metrics.evaluate(ds, est)
      methodSecs.getOrElseUpdate(op.name, mutable.Buffer.empty) += (System.nanoTime() - t0) / 1e9
      methodCpu.getOrElseUpdate(op.name, mutable.Buffer.empty) += Workload.processCpuSeconds - c0
      res.foreach(tcRuns += _)
      if (op.name == "T-Crowd") lastQuality = (er, mn)
      val (wantEr, wantMn) = Expected(op.name)
      if (Workload.samePrinted(er, wantEr) && Workload.samePrinted(mn, wantMn)) None
      else Some(f"${op.name}: error=$er%.4f mnad=$mn%.4f, expected $wantEr%.4f / $wantMn%.4f")
    }
  }

  /** None: Table 7 is a batch job, and a user pays JIT and codegen warm-up on every run. */
  val warmUp: Option[() => Seq[String]] = None
  val nominalOpSeconds = 35.0

  /** A pass: the sum over methods of each method's median time. */
  def wallSeconds: Double = methodSecs.values.map(b => Workload.median(b.toSeq)).sum
  def cpuSeconds: Double = methodCpu.values.map(b => Workload.median(b.toSeq)).sum
  def tcrowdSeconds: Double = Workload.median(methodSecs.getOrElse("T-Crowd", Nil).toSeq)
  def quality: (Double, Double) = lastQuality
  override def tcrowdIterations: Double = tcRuns.map(_.iterations).sum.toDouble / math.max(passes, 1)
  override def tcrowdConverged: Double = tcRuns.count(_.converged).toDouble / math.max(passes, 1)
}

object Table7Celebrity {
  val Iters = 2

  final case class MethodOp(name: String, run: CrowdDataset => (Seq[TruthCell], Option[TCrowdResult]))

  /** Celebrity (Error Rate, MNAD) per method at the settings above, as the
    * program produced them when this benchmark was written. Majority Voting
    * and Median take no settings and equal the Celebrity column of
    * `bench_results/table7.txt`.
    */
  val Expected: Map[String, (Double, Double)] = Map(
    "T-Crowd"     -> (0.0383, 0.3167),
    "CRH"         -> (0.0441, 0.3184),
    "CATD"        -> (0.0460, 0.2906),
    "Maj. Voting" -> (0.0460, Double.NaN),
    "EM"          -> (0.1073, Double.NaN),
    "GLAD"        -> (0.0345, Double.NaN),
    "Zencrowd"    -> (0.0326, Double.NaN),
    "TC-onlyCate" -> (0.0345, Double.NaN),
    "Median"      -> (Double.NaN, 0.3548),
    "GTM"         -> (Double.NaN, 0.2943),
    "TC-onlyCont" -> (Double.NaN, 0.3217),
  )
}

/** Online assignment on the Restaurant surrogate shrunk to `Rows` rows, as in
  * `Experiments.onlineConfig`. One op is an `Assignment.simulate` session:
  * structure-aware information gain with T-Crowd refreshes, from 1 to 2
  * answers per task with a checkpoint at each, so 2 refreshes (each a cold
  * T-Crowd run, `Correlation.estimate` and `Metrics.evaluate`) and
  * `Rows` x 5 picks.
  */
final class OnlineRestaurant(spark: SparkSession) extends Workload {
  import OnlineRestaurant._

  private val simCfg = Experiments.onlineConfig(Rows, seed = 17L)
  private val runCfg = SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = Every,
    tcrowd = TCrowdConfig(maxIters = 2, gdSteps = 2))

  private var sim: CrowdSim = _
  private val sessionSecs = mutable.Buffer.empty[Double]
  private val sessionCpu = mutable.Buffer.empty[Double]
  private val refreshSecs = mutable.Buffer.empty[Double]
  private val picks = mutable.Buffer.empty[Long]
  private var lastQuality = (Double.NaN, Double.NaN)

  def setUp(): Unit = {
    sim = new CrowdSim(simCfg)
    sim.allTruth
    sim.arrivalSequence(1)
  }

  def runOp(): Seq[String] = {
    val t0 = System.nanoTime()
    val c0 = Workload.processCpuSeconds
    val timed = new TimedStrategy(new StructGainStrategy, sim.cfg.numRows * sim.columnSpecs.size, Every)
    val points = Assignment.simulate(sim, spark, timed, runCfg)
    timed.end()
    sessionSecs += (System.nanoTime() - t0) / 1e9
    sessionCpu += Workload.processCpuSeconds - c0
    refreshSecs ++= timed.refreshNanos.map(_ / 1e9)
    picks ++= timed.pickNanos
    points.lastOption.foreach(p => lastQuality = (p.errorRate, p.mnad))
    check(points, Expected)
  }

  /** Sessions repeat inside a long-lived assignment service, so the measured
    * ones run warm. The warm-up is a session that stops at 1 answer per task:
    * its one refresh runs the same Spark queries as every later refresh.
    */
  val warmUp: Option[() => Seq[String]] = Some(() =>
    check(Assignment.simulate(sim, spark, new StructGainStrategy, runCfg.copy(maxAvgAnswers = 1.0)),
      Expected.take(1)))

  private def check(points: Seq[SimPoint], want: Seq[(Double, Double, Double)]): Seq[String] = {
    val got = points.map(p => (p.avgAnswersPerTask, p.errorRate, p.mnad))
    val ok = got.size == want.size && got.zip(want).forall { case ((a, e, m), (wa, we, wm)) =>
      Workload.samePrinted(a, wa) && Workload.samePrinted(e, we) && Workload.samePrinted(m, wm)
    }
    if (ok) Nil else Seq(s"session trace $got, expected $want")
  }

  val nominalOpSeconds = 10.0

  def wallSeconds: Double = Workload.median(sessionSecs.toSeq)
  def cpuSeconds: Double = Workload.median(sessionCpu.toSeq)
  def tcrowdSeconds: Double = Workload.median(refreshSecs.toSeq)
  def quality: (Double, Double) = lastQuality
  override def pickNanos: Seq[Long] = picks.toSeq
}

object OnlineRestaurant {
  val Rows = 48
  val Every = 1.0

  /** (answers per task, Error Rate, MNAD) at each checkpoint, as the program
    * produced them when this benchmark was written.
    */
  val Expected: Seq[(Double, Double, Double)] = Seq(
    (1.0, 0.1944, 0.5428),
    (2.0, 0.0556, 0.3501),
  )
}
