package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Harness entry point; see perfbench/README.md.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * Main --selftest
  * }}}
  * The last line of standard output is the JSON result.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    if (argv.toSeq == Seq("--selftest")) { SelfTest.run(); return }
    val opts = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val result = Bench.run(opts("workload"), opts("seed").toLong, opts("seconds").toInt,
      opts("trace") == "1")
    println(result)
  }
}

/** Quantiles as Python's `statistics.quantiles(method="inclusive")` gives them. */
object Stats {
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
}

/** Host-wide counters over a window: CPU time the hypervisor stole from this
  * machine, CPU time used by processes other than this JVM, and this JVM's
  * time in garbage collection.
  */
final case class HostCounters(stealSeconds: Double, otherCpuSeconds: Double, gcSeconds: Double) {
  def -(o: HostCounters): HostCounters = HostCounters(stealSeconds - o.stealSeconds,
    otherCpuSeconds - o.otherCpuSeconds, gcSeconds - o.gcSeconds)
}

object HostCounters {
  private val UserHz = 100.0

  /** `cpu` line of /proc/stat: user nice system idle iowait irq softirq steal ... */
  private def procStat(): Option[Array[Double]] =
    try {
      Files.readAllLines(Paths.get("/proc/stat")).asScala.find(_.startsWith("cpu "))
        .map(_.trim.split("\\s+").drop(1).map(_.toDouble / UserHz))
    } catch { case NonFatal(_) => None }

  def read(): HostCounters = {
    val cpu = procStat()
    val steal = cpu.map(_(7)).getOrElse(0.0)
    val busy = cpu.map(f => f(0) + f(1) + f(2) + f(5) + f(6)).getOrElse(0.0)
    val gcMs = ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(_.getCollectionTime).filter(_ > 0).sum
    HostCounters(steal, busy - Workload.processCpuSeconds, gcMs / 1000.0)
  }
}

/** Runs one workload: set-up, warm-up, a measured window, and the result. */
object Bench {
  /** Repetitions of the data set-up, of which `setup_s` takes the median. */
  val SetupRepeats = 3

  /** Modules whose Spark work the traced run reports; anything else is `other`. */
  val Modules: Seq[String] = Seq(
    "core.TCrowd", "core.Model", "core.Correlation", "core.Assignment", "metrics.Metrics",
    "baselines.BaselineUtil", "baselines.MajorityVote", "baselines.MedianBaseline",
    "baselines.Crh", "baselines.Catd", "baselines.DawidSkene", "baselines.Glad",
    "baselines.ZenCrowd", "baselines.Gtm", JobAttribution.Other,
  )

  def session(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  def workload(name: String, spark: SparkSession, seed: Long): Workload = name match {
    case "table7-celebrity"  => new Table7Celebrity(spark, seed)
    case "online-restaurant" => new OnlineRestaurant(spark)
    case other               => throw new IllegalArgumentException(s"unknown workload $other")
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def run(name: String, seed: Long, windowSeconds: Int, trace: Boolean): String = {
    val t0 = System.nanoTime()
    val spark = session()
    val sparkStart = seconds(t0)
    val tracer = if (trace) {
      val l = new JobAttribution(spark.sparkContext)
      spark.sparkContext.addSparkListener(l)
      Some(l)
    } else None
    val wl = workload(name, spark, seed)
    val setups = (1 to SetupRepeats).map { _ =>
      val s = System.nanoTime(); wl.setUp(); seconds(s)
    }

    var attempted = 0
    var failed = 0
    def op(run: () => Seq[String]): Unit = {
      attempted += 1
      val problems =
        try run()
        catch { case NonFatal(e) => Seq(s"exception: $e") }
      if (problems.nonEmpty) {
        failed += 1
        problems.foreach(p => Console.err.println(s"[perfbench] output check failed: $p"))
      }
    }

    val warm0 = System.nanoTime()
    wl.warmUp.foreach(op)
    val warmup = seconds(warm0)
    val before = HostCounters.read()
    val window0 = System.nanoTime()
    val workBefore = tracer.map(_.snapshot)
    // A fixed number of ops for a given --seconds, so every run does the same
    // work (and retains the same Spark status history) whatever the host's speed.
    val measured = math.max(1, math.round(windowSeconds / wl.nominalOpSeconds).toInt)
    (1 to measured).foreach(_ => op(() => wl.runOp()))
    val window = seconds(window0)
    val host = HostCounters.read() - before
    val work = tracer.map(l => JobAttribution.delta(l.snapshot, workBefore.get))

    // Spark's ContextCleaner frees broadcasts and shuffles only after a GC
    // has cleared their references, so collect, give it time, and repeat.
    ListenerBusDrain(spark.sparkContext)
    val liveHeapMb = (1 to 3).map { _ =>
      System.gc()
      Thread.sleep(300)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    }.min
    spark.stop()

    val (er, mn) = wl.quality
    Console.err.println(f"[perfbench] $name seed=$seed spark_start_s=$sparkStart%.2f " +
      f"warmup_s=$warmup%.2f window_s=$window%.2f ops=$measured wall_s=${wl.wallSeconds}%.3f " +
      f"host.steal_s=${host.stealSeconds}%.2f host.other_cpu_s=${host.otherCpuSeconds}%.2f " +
      f"jvm.gc_s=${host.gcSeconds}%.2f")

    val metrics: Seq[(String, Double, String)] = work match {
      case None => Seq(
        ("setup_s", sparkStart + Workload.median(setups), "s"),
        ("wall_s", wl.wallSeconds, "s"),
        ("cpu_s", wl.cpuSeconds, "s"),
        ("live_heap_mb", liveHeapMb, "MB"),
        ("error_rate", er, "ratio"),
        ("mnad", mn, "ratio"),
      )
      case Some(w) =>
        val byModule = w.toSeq.groupMapReduce { case (m, _) =>
          if (Modules.contains(m)) m else JobAttribution.Other
        }(_._2)(_ + _)
        val perOp = 1.0 / measured
        val moduleMetrics = Modules.flatMap { m =>
          val mw = byModule.getOrElse(m, ModuleWork.zero)
          Seq((s"$m.jobs", mw.jobs * perOp, "count"),
            (s"$m.busy_s", mw.busyNanos / 1e9 * perOp, "s"),
            (s"$m.shuffle_mb", mw.shuffleBytes / 1e6 * perOp, "MB"))
        }
        val picks = wl.pickNanos.map(_ / 1e6)
        def pickQ(q: Double) = if (picks.isEmpty) 0.0 else Stats.quantile(picks, q)
        moduleMetrics ++ Seq(
          ("core.TCrowd.iterations", wl.tcrowdIterations, "count"),
          ("core.TCrowd.converged", wl.tcrowdConverged, "count"),
          ("core.Assignment.picks", picks.size * perOp, "count"),
          ("core.Assignment.pick_busy_s", picks.sum / 1e3 * perOp, "s"),
          ("core.Assignment.pick_ms.p50", pickQ(0.5), "ms"),
          ("core.Assignment.pick_ms.p90", pickQ(0.9), "ms"),
          ("host.steal_s", host.stealSeconds, "s"),
          ("host.other_cpu_s", host.otherCpuSeconds, "s"),
          ("jvm.gc_s", host.gcSeconds, "s"),
          ("traced.ops", measured.toDouble, "count"),
          ("traced.wall_s", wl.wallSeconds, "s"),
          ("traced.tcrowd_s", wl.tcrowdSeconds, "s"),
        )
    }
    json(failed == 0, attempted, failed, metrics)
  }

  private def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def json(correct: Boolean, attempted: Int, failed: Int,
           metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
