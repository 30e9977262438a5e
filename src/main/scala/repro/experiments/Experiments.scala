package repro.experiments

import java.nio.file.{Files, Paths, StandardOpenOption}
import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.crowd._
import repro.metrics.Metrics

/** Shared harnesses behind the `jobs/` spark-submit entrypoints and the
  * `bench/` suites. Each `tableN`/figure function reproduces one evaluation
  * artifact of the paper and returns both structured scores (for bench
  * assertions) and a formatted text table (printed and archived under
  * `bench_results/`).
  */
object Experiments {

  final case class Score(method: String, dataset: String, errorRate: Double, mnad: Double)

  // Each artifact's settings, stated once (EXPERIMENTS.md lists them; the sweeps'
  // points are with their generator). The baselines run at their defaults.
  val benchCfg: TCrowdConfig = TCrowdConfig(maxIters = 10, gdSteps = 4)     // Table 7, Figs 7-10
  val onlineCfg: TCrowdConfig = TCrowdConfig(maxIters = 6, gdSteps = 3)     // each Fig 5 / Fig 2 refresh
  val throughputCfg: TCrowdConfig = TCrowdConfig(maxIters = 5, gdSteps = 3) // the timed Fig 12b runs
  val onlineRows = 48                                     // Fig 5 / Fig 2: the table's rows,
  val onlineMaxAvg = 3.0                                  // and the answers per task a session collects
  val noiseLevels: Seq[Double] = Seq(0.1, 0.2, 0.3, 0.4)  // Fig 10's gamma
  val throughputSizes: Seq[Int] = Seq(2000, 8000, 32000)  // Fig 12b's |A|

  private def fmt(x: Double): String = if (x.isNaN) "   /  " else f"$x%.4f"

  // ------------------------------------------------------------- Table 6

  /** Table 6: statistics of the (surrogate) datasets. */
  def table6: (Seq[(String, Int, Int, Long, Int)], String) = {
    val stats = Seq(
      Surrogates.celebrityConfig(), Surrogates.restaurantConfig(), Surrogates.emotionConfig(),
    ).map(cfg => (cfg.name, cfg.numRows, cfg.columns.size, new CrowdSim(cfg).allTruth.size.toLong, cfg.answersPerTask))
    val sb = new StringBuilder
    sb ++= "Table 6: Statistics of (surrogate) datasets\n"
    sb ++= "| Dataset    | #Rows | #Columns | #Cells | #Ans. per Task |\n"
    sb ++= "|------------|-------|----------|--------|----------------|\n"
    stats.foreach { case (n, r, c, cells, apt) =>
      sb ++= f"| $n%-10s | $r%5d | $c%8d | $cells%6d | $apt%14d |\n"
    }
    (stats, sb.toString)
  }

  // ------------------------------------------------------------- Table 7

  /** Methods of Table 7 applicable to every dataset (heterogeneous group). */
  def heterogeneousMethods(cfg: TCrowdConfig): Seq[InferenceMethod] =
    Seq(TCrowdMethod(cfg), Crh(), Catd())

  def categoricalMethods(cfg: TCrowdConfig): Seq[InferenceMethod] =
    Seq(MajorityVote, DawidSkene(), Glad(), ZenCrowd(), TCrowdOnlyCate(cfg))

  def continuousMethods(cfg: TCrowdConfig): Seq[InferenceMethod] =
    Seq(MedianBaseline, Gtm(), TCrowdOnlyCont(cfg))

  /** Table 7: truth-inference effectiveness of all methods on the three surrogate datasets. */
  def table7(spark: SparkSession): (Seq[Score], String) = {
    val scores =
      for {
        ds <- Surrogates.all(spark)
        method <- heterogeneousMethods(benchCfg) ++
          (if (ds.categoricalCols.nonEmpty) categoricalMethods(benchCfg) else Seq.empty) ++
          (if (ds.continuousCols.nonEmpty) continuousMethods(benchCfg) else Seq.empty)
      } yield {
        val t0 = System.nanoTime()
        val (er, mn) = Metrics.evaluate(ds, method.infer(ds))
        val secs = (System.nanoTime() - t0) / 1e9
        Console.err.println(f"[table7] ${ds.name}%-10s ${method.name}%-12s " +
          f"error=${fmt(er)} mnad=${fmt(mn)} (${secs}%.1f s)")
        Score(method.name, ds.name, er, mn)
      }
    (scores, renderTable7(scores))
  }

  def renderTable7(scores: Seq[Score]): String = {
    val order = (heterogeneousMethods(benchCfg) ++ categoricalMethods(benchCfg) ++
      continuousMethods(benchCfg)).map(_.name)
    val byKey = scores.map(s => (s.method, s.dataset) -> s).toMap
    val sb = new StringBuilder
    sb ++= "Table 7: Effectiveness of Truth Inference (measured on surrogates)\n"
    sb ++= "|              | Celebrity           | Restaurant          | Emotion |\n"
    sb ++= "| Method       | Error Rate | MNAD   | Error Rate | MNAD   | MNAD    |\n"
    sb ++= "|--------------|------------|--------|------------|--------|---------|\n"
    for (m <- order) {
      def cell(ds: String, f: Score => Double): String =
        byKey.get((m, ds)).map(s => fmt(f(s))).getOrElse("   /  ")
      sb ++= f"| $m%-12s | ${cell("Celebrity", _.errorRate)}     | ${cell("Celebrity", _.mnad)} " +
        f"| ${cell("Restaurant", _.errorRate)}     | ${cell("Restaurant", _.mnad)} " +
        f"| ${cell("Emotion", _.mnad)}  |\n"
    }
    sb.toString
  }

  // ----------------------------------------------- Fig 5: assignment heuristics

  /** Restaurant-shaped config for the online simulations, by default at the 48 rows of the archived
    * Fig 5/Fig 2 tables and recorded SimPoints, not for speed (at 203 rows a figure takes 1.3-2.0 s).
    */
  def onlineConfig(rows: Int = onlineRows, seed: Long = 11L): SimConfig =
    Surrogates.restaurantConfig(seed).copy(name = s"Restaurant-$rows", numRows = rows)

  /** Figure 5 (rendered as a table): Error Rate and MNAD vs answers-per-task
    * for the five assignment heuristics, all using T-Crowd inference.
    */
  def assignmentHeuristics(spark: SparkSession, rows: Int = onlineRows,
                           maxAvg: Double = onlineMaxAvg): (Map[String, Seq[SimPoint]], String) = {
    val simCfg = onlineConfig(rows)
    val strategies = Seq(new RandomStrategy(1L), new LoopingStrategy, new EntropyStrategy,
      new InherentGainStrategy, new StructGainStrategy)
    val traces = strategies.map(s => s.name -> session(spark, "fig5", s.name, simCfg, s, maxAvg, None)).toMap
    (traces, renderTraces("Figure 5 (as table): assignment heuristics on Restaurant surrogate",
      traces))
  }

  // ----------------------------------------------- Fig 2: end-to-end systems

  /** Figure 2 (rendered as a table): end-to-end systems — T-Crowd
    * (structure-aware IG + T-Crowd inference) vs CDAS, AskIt!, CRH, CATD
    * (the latter two assign randomly).
    */
  def endToEnd(spark: SparkSession, rows: Int = onlineRows,
               maxAvg: Double = onlineMaxAvg): (Map[String, Seq[SimPoint]], String) = {
    val simCfg = onlineConfig(rows, seed = 17L)
    val catCols = simCfg.columns.zipWithIndex.filter(_._1.isCategorical).map(_._2).toSet
    val systems: Seq[(String, AssignStrategy, Option[InferenceMethod])] = Seq(
      ("T-Crowd", new StructGainStrategy, None),
      ("CDAS", new CdasStrategy(catCols), Some(VoteMedian)),
      ("AskIt", new AskItStrategy(catCols), Some(VoteMedian)),
      ("CRH", new RandomStrategy(7L), Some(Crh())),
      ("CATD", new RandomStrategy(8L), Some(Catd())),
    )
    val traces = systems.map { case (name, strat, inf) =>
      name -> session(spark, "fig2", name, simCfg, strat, maxAvg, inf)
    }.toMap
    (traces, renderTraces("Figure 2 (as table): end-to-end system comparison", traces))
  }

  /** One Fig 5 / Fig 2 session of `strategy` on `cfg`'s table, up to
    * `maxAvg` answers per task with a checkpoint every 0.5 and T-Crowd
    * refreshed at [[onlineCfg]]. It reports on stderr its picks (the answers
    * after the seeding round, one per cell), its checkpoints and its wall time.
    */
  private def session(spark: SparkSession, tag: String, name: String, cfg: SimConfig, strategy: AssignStrategy,
                      maxAvg: Double, inference: Option[InferenceMethod]): Seq[SimPoint] = {
    Console.err.println(s"[$tag] running $name")
    val run = SimRunConfig(maxAvgAnswers = maxAvg, checkpointEvery = 0.5, tcrowd = onlineCfg, inference = inference)
    val t0 = System.nanoTime()
    val points = Assignment.simulate(new CrowdSim(cfg), spark, strategy, run)
    val secs = (System.nanoTime() - t0) / 1e9
    val nCells = cfg.numRows * cfg.columns.size
    val picks = points.lastOption.fold(0L)(p => math.round((p.avgAnswersPerTask - 1.0) * nCells))
    Console.err.println(f"[$tag] $name%-12s $picks%4d picks, ${points.size}%2d checkpoints, $secs%.2f s")
    points
  }

  def renderTraces(title: String, traces: Map[String, Seq[SimPoint]]): String = {
    val sb = new StringBuilder
    sb ++= title + "\n"
    sb ++= "| Method       | avg#ans | Error Rate | MNAD   |\n"
    sb ++= "|--------------|---------|------------|--------|\n"
    for ((name, pts) <- traces.toSeq.sortBy(_._1); p <- pts) {
      sb ++= f"| $name%-12s | ${p.avgAnswersPerTask}%7.2f | ${fmt(p.errorRate)}     | ${fmt(p.mnad)} |\n"
    }
    sb.toString
  }

  // ----------------------------------------------- Fig 7/8/9: synthetic sweeps

  /** Generator matching §6.5.1: M columns, ratio R categorical (label count
    * cycles deterministically through U(2,10)'s support), continuous domain
    * [0,1000]; Celebrity-like worker pool.
    */
  def sweepConfig(m: Int, r: Double, difficulty: Double): SimConfig = {
    val nCat = math.round(m * r).toInt
    val cols = (0 until m).map { j =>
      if (j < nCat) SimColumn(s"c$j", numLabels = 2 + (j * 3) % 9)
      else SimColumn(s"x$j", 0, lo = 0, hi = 1000)
    }
    SimConfig(s"sweep-M$m-R$r-D$difficulty", numRows = 40, columns = cols,
      numWorkers = 50, answersPerTask = 5, seed = 29L, difficultyScale = difficulty)
  }

  /** One §6.5.1 sweep: its figure's title and its labelled generator settings. */
  final case class Sweep(title: String, points: Seq[(String, SimConfig)])

  val columnSweep: Sweep = Sweep("Figure 7 (as table): effect of #columns",
    Seq(5, 10, 20).map(m => s"M=$m" -> sweepConfig(m, 0.5, 1.0)))
  val ratioSweep: Sweep = Sweep("Figure 8 (as table): effect of categorical ratio",
    Seq(0.0, 0.5, 1.0).map(r => s"R=$r" -> sweepConfig(10, r, 1.0)))
  val difficultySweep: Sweep = Sweep("Figure 9 (as table): effect of average difficulty",
    Seq(0.5, 1.0, 3.0).map(d => s"mu=$d" -> sweepConfig(10, 0.5, d)))

  /** Figures 7/8/9 (as tables): T-Crowd vs CRH vs CATD at each point of the sweep. */
  def sweep(spark: SparkSession, s: Sweep): (Seq[(String, Seq[Score])], String) = {
    val rows = s.points.map { case (label, cfg) =>
      val ds = new CrowdSim(cfg).dataset(spark)
      label -> heterogeneousMethods(benchCfg).map { m =>
        val (er, mn) = Metrics.evaluate(ds, m.infer(ds))
        Console.err.println(f"[sweep] ${cfg.name}%-22s ${m.name}%-8s error=${fmt(er)} mnad=${fmt(mn)}")
        Score(m.name, cfg.name, er, mn)
      }
    }
    (rows, renderSweep(s.title, rows))
  }

  def renderSweep(title: String, rows: Seq[(String, Seq[Score])]): String = {
    val sb = new StringBuilder
    sb ++= title + "\n"
    sb ++= "| Setting  | Method  | Error Rate | MNAD   |\n"
    sb ++= "|----------|---------|------------|--------|\n"
    for ((setting, scores) <- rows; s <- scores)
      sb ++= f"| $setting%-8s | ${s.method}%-7s | ${fmt(s.errorRate)}     | ${fmt(s.mnad)} |\n"
    sb.toString
  }

  // ----------------------------------------------- Fig 10: noise robustness

  /** Figure 10 (as table): noise injected into the Celebrity surrogate. */
  def noise(spark: SparkSession): (Seq[(Double, Seq[Score])], String) = {
    val base = Surrogates.celebrity(spark)
    val rows = noiseLevels.map { g =>
      val noisy = CrowdSim.addNoise(base, base.table.stats, g, seed = 101L)
      val methods: Seq[InferenceMethod] = Seq(TCrowdMethod(benchCfg), Crh(), Gtm())
      g -> methods.map { m =>
        val (er, mn) = Metrics.evaluate(noisy, m.infer(noisy))
        Console.err.println(f"[noise] gamma=$g ${m.name}%-8s error=${fmt(er)} mnad=${fmt(mn)}")
        Score(m.name, noisy.name, er, mn)
      }
    }
    (rows, renderSweep("Figure 10 (as table): noise robustness on Celebrity surrogate",
      rows.map { case (g, s) => (f"g=$g%.1f", s) }))
  }

  // ----------------------------------------------- Fig 12b: throughput

  /** Figure 12(b) (as table): truth-inference throughput (answers/second)
    * at growing answer-set sizes; the paper's claim is linear scaling. The
    * answer table is collected before the clock starts, so the time is
    * T-Crowd's EM alone.
    */
  def throughput(spark: SparkSession): (Seq[(Int, Double)], String) = {
    val points = throughputSizes.map { n =>
      // rows scaled so that |A| = rows * cols(4) * apt(5) = n
      val rows = math.max(4, n / 20)
      val cfg = sweepConfig(m = 4, r = 0.5, difficulty = 1.0).copy(
        name = s"throughput-$n", numRows = rows)
      val t = new CrowdSim(cfg).dataset(spark).table
      val t0 = System.nanoTime()
      TCrowd.infer(t, throughputCfg)
      val secs = (System.nanoTime() - t0) / 1e9
      val rate = n / secs
      Console.err.println(f"[throughput] |A|=$n -> $secs%.1f s (${rate}%.0f answers/s)")
      n -> rate
    }
    val sb = new StringBuilder
    sb ++= "Figure 12b (as table): truth-inference throughput\n"
    sb ++= "| #Answers | Answers/second |\n|----------|----------------|\n"
    points.foreach { case (n, r) => sb ++= f"| $n%8d | $r%14.0f |\n" }
    (points, sb.toString)
  }

  // --------------------------------------------------------------- reporting

  /** Append a bench artifact under bench_results/ (created on demand). */
  def writeReport(name: String, content: String): Unit = {
    val dir = Paths.get(sys.props.getOrElse("repro.results.dir", "bench_results"))
    Files.createDirectories(dir)
    Files.write(dir.resolve(name), content.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
