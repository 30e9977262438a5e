package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.MathUtil._
import repro.crowd.CrowdSim
import repro.metrics.Metrics
import scala.collection.mutable
import scala.util.Random

/** Driver-side snapshot of the inference state, supporting the paper's
  * accelerated assignment (§5.1): between full EM refreshes, a new answer
  * only updates the answered cell's posterior (Gaussian precision update /
  * likelihood reweighting), keeping per-assignment cost constant.
  */
final class Snapshot(@volatile var res: TCrowdResult, val labelCount: Map[Int, Int]) {
  val contPost: mutable.Map[(Int, Int), (Double, Double)] = mutable.Map.from(res.contPosterior)
  val catPost: mutable.Map[(Int, Int), Array[Double]]     = mutable.Map.from(res.catPosterior)

  def refresh(r: TCrowdResult): Unit = {
    res = r
    contPost.clear(); contPost ++= r.contPosterior
    catPost.clear(); catPost ++= r.catPosterior
  }

  def contOf(i: Int, j: Int): (Double, Double) = contPost.getOrElse((i, j), (0.0, Model.PriorVar))

  def catOf(i: Int, j: Int): Array[Double] = {
    val l = labelCount(j)
    catPost.getOrElse((i, j), Array.fill(l)(1.0 / l))
  }

  /** Current point estimate of a cell (normalized space for continuous). */
  def estimateOf(i: Int, j: Int): Double =
    if (labelCount.getOrElse(j, 0) > 0) argmax(catOf(i, j)).toDouble
    else contOf(i, j)._1

  /** Normalize a raw continuous answer with the snapshot's column stats. */
  def normalize(j: Int, v: Double): Double = Model.normalize(res.contStats, j, v)

  /** Local Bayesian update of cell (i,j)'s posterior with a new raw answer. */
  def applyAnswer(u: Int, i: Int, j: Int, raw: Double): Unit = {
    val v = res.cellVariance(u, i, j)
    if (labelCount.getOrElse(j, 0) > 0) {
      catPost((i, j)) = InfoGain.answerPosterior(catOf(i, j), quality(TCrowd.Eps, v), raw.toInt)
    } else {
      val (mu, tphi) = contOf(i, j)
      val w = 1.0 / math.max(v, 1e-9)
      val nphi = 1.0 / (1.0 / tphi + w)
      val nmu = (mu / tphi + w * normalize(j, raw)) * nphi
      contPost((i, j)) = (nmu, nphi)
    }
  }
}

/** An online task-assignment policy. `observe` is invoked for every
  * collected answer (including the seeding round) so self-contained
  * strategies (CDAS, AskIt) can maintain incremental per-cell aggregates.
  */
trait AssignStrategy {
  def name: String
  /** Whether the policy needs a T-Crowd snapshot (IG/entropy strategies). */
  def needsSnapshot: Boolean = false
  /** Whether the policy needs the §5.2 correlation model. */
  def needsCorrelation: Boolean = false
  def pick(st: AssignState, u: Int): Option[(Int, Int)]
  def observe(u: Int, i: Int, j: Int, value: Double): Unit = {}
}

/** Mutable state shared by the simulation loop and the strategies. */
final class AssignState(
    val numRows: Int,
    val columns: Seq[ColumnSpec],
    val snapshot: Snapshot,
) {
  var corr: Option[CorrelationModel] = None
  val answeredBy: mutable.Map[Int, mutable.Set[(Int, Int)]] = mutable.Map.empty
  /** (worker,row) -> answered (col, rawValue) pairs, for §5.2 row context. */
  val rowAnswers: mutable.Map[(Int, Int), mutable.Buffer[(Int, Double)]] = mutable.Map.empty
  val log: mutable.Buffer[Answer] = mutable.Buffer.empty

  def record(a: Answer): Unit = {
    log += a
    answeredBy.getOrElseUpdate(a.worker, mutable.Set.empty) += ((a.row, a.col))
    rowAnswers.getOrElseUpdate((a.worker, a.row), mutable.Buffer.empty) += ((a.col, a.value))
  }

  def isAnswered(u: Int, i: Int, j: Int): Boolean =
    answeredBy.get(u).exists(_.contains((i, j)))

  def availableCells(u: Int): Iterator[(Int, Int)] = {
    val done = answeredBy.getOrElse(u, mutable.Set.empty)
    for {
      i <- (0 until numRows).iterator
      c <- columns.iterator
      if !done.contains((i, c.col))
    } yield (i, c.col)
  }

  /** Worker u's observed errors on row i vs the current snapshot estimates
    * (0/1 for categorical, normalized signed difference for continuous).
    */
  def workerErrorsOnRow(u: Int, i: Int): Seq[(Int, Double)] =
    rowAnswers.getOrElse((u, i), mutable.Buffer.empty).toSeq.map { case (j, raw) =>
      if (snapshot.labelCount.getOrElse(j, 0) > 0) {
        val est = snapshot.estimateOf(i, j)
        j -> (if (est.toInt == raw.toInt) 0.0 else 1.0)
      } else {
        j -> (snapshot.normalize(j, raw) - snapshot.contOf(i, j)._1)
      }
    }
}

/** Uniform-random assignment (the CRH/CATD/CrowdDB setting in the paper). */
final class RandomStrategy(seed: Long = 1L) extends AssignStrategy {
  val name = "Random"
  private val rng = new Random(seed)
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val avail = st.availableCells(u).toIndexedSeq
    if (avail.isEmpty) None else Some(avail(rng.nextInt(avail.size)))
  }
}

/** Round-robin over cells (paper §6.4.2 "Looping"). */
final class LoopingStrategy extends AssignStrategy {
  val name = "Looping"
  private var ptr = 0
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val m = st.columns.size
    val total = st.numRows * m
    var tried = 0
    while (tried < total) {
      val cell = (ptr / m, st.columns(ptr % m).col)
      ptr = (ptr + 1) % total
      tried += 1
      if (!st.isAnswered(u, cell._1, cell._2)) return Some(cell)
    }
    None
  }
}

/** Greedy max uniform entropy (paper §6.4.2 "Entropy") — datatype-biased by
  * construction, which is exactly what the paper demonstrates.
  */
final class EntropyStrategy extends AssignStrategy {
  val name = "Entropy"
  override val needsSnapshot = true
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val snap = st.snapshot
    val avail = st.availableCells(u)
    if (avail.isEmpty) return None
    Some(avail.maxBy { case (i, j) =>
      InfoGain.uniformEntropy(snap.labelCount.getOrElse(j, 0) > 0, snap.catOf(i, j), snap.contOf(i, j)._2)
    })
  }
}

/** Inherent information gain (paper §5.1). */
final class InherentGainStrategy extends AssignStrategy {
  val name = "Inherent IG"
  override val needsSnapshot = true
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val snap = st.snapshot
    val avail = st.availableCells(u)
    if (avail.isEmpty) return None
    Some(avail.maxBy { case (i, j) => Assignment.inherentGain(snap, u, i, j) })
  }
}

/** Structure-aware information gain (paper §5.2): the worker's expected
  * error on a candidate cell is conditioned on their observed errors in the
  * same row through the correlation model.
  */
final class StructGainStrategy extends AssignStrategy {
  val name = "Struct IG"
  override val needsSnapshot = true
  override val needsCorrelation = true
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val avail = st.availableCells(u)
    if (avail.isEmpty) return None
    Some(avail.maxBy { case (i, j) => Assignment.structureAwareGain(st, u, i, j) })
  }
}

/** CDAS [20]: tasks whose current estimate is confident are terminated; the
  * next task is random among non-terminated ones. Confidence is the leading
  * vote share (categorical) / the standard error (continuous, in raw units
  * relative to the cell's answer spread).
  */
final class CdasStrategy(catCols: Set[Int], seed: Long = 2L, minAnswers: Int = 3,
                         voteShare: Double = 0.8, semRatio: Double = 0.25)
    extends AssignStrategy {
  val name = "CDAS"
  private val rng = new Random(seed)
  private val votes = mutable.Map.empty[(Int, Int), mutable.Map[Int, Int]]
  private val moments = mutable.Map.empty[(Int, Int), (Long, Double, Double)] // n, sum, sumSq

  override def observe(u: Int, i: Int, j: Int, value: Double): Unit =
    if (catCols.contains(j)) {
      val m = votes.getOrElseUpdate((i, j), mutable.Map.empty)
      m(value.toInt) = m.getOrElse(value.toInt, 0) + 1
    } else {
      val (n, s, s2) = moments.getOrElse((i, j), (0L, 0.0, 0.0))
      moments((i, j)) = (n + 1, s + value, s2 + value * value)
    }

  private def terminated(st: AssignState, i: Int, j: Int): Boolean =
    if (catCols.contains(j)) {
      votes.get((i, j)).exists { m =>
        val n = m.values.sum
        n >= minAnswers && m.values.max.toDouble / n >= voteShare
      }
    } else {
      moments.get((i, j)).exists { case (n, s, s2) =>
        if (n < minAnswers) false
        else {
          val mean = s / n
          val v = math.max(s2 / n - mean * mean, 0.0)
          math.sqrt(v / n) <= semRatio * math.max(math.sqrt(v), 1e-9)
        }
      }
    }

  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val avail = st.availableCells(u).toIndexedSeq
    if (avail.isEmpty) return None
    val open = avail.filterNot { case (i, j) => terminated(st, i, j) }
    val pool = if (open.nonEmpty) open else avail
    Some(pool(rng.nextInt(pool.size)))
  }
}

/** AskIt! [5]: next task = highest uncertainty, measured on the raw answer
  * distribution (vote entropy / differential entropy of the sample-mean
  * distribution). Datatype-blind and worker-blind, hence the continuous-first
  * bias the paper describes.
  */
final class AskItStrategy(catCols: Set[Int]) extends AssignStrategy {
  val name = "AskIt"
  private val votes = mutable.Map.empty[(Int, Int), mutable.Map[Int, Int]]
  private val cellN = mutable.Map.empty[(Int, Int), Long]
  private val colMoments = mutable.Map.empty[Int, (Long, Double, Double)]

  override def observe(u: Int, i: Int, j: Int, value: Double): Unit =
    if (catCols.contains(j)) {
      val m = votes.getOrElseUpdate((i, j), mutable.Map.empty)
      m(value.toInt) = m.getOrElse(value.toInt, 0) + 1
    } else {
      cellN((i, j)) = cellN.getOrElse((i, j), 0L) + 1
      val (n, s, s2) = colMoments.getOrElse(j, (0L, 0.0, 0.0))
      colMoments(j) = (n + 1, s + value, s2 + value * value)
    }

  private def uncertainty(i: Int, j: Int): Double =
    if (catCols.contains(j)) {
      votes.get((i, j)).map { m =>
        val n = m.values.sum.toDouble
        shannonEntropy(m.values.map(_ / n))
      }.getOrElse(10.0) // unanswered categorical: maximal urgency
    } else {
      // variance of the cell's sample mean, with the column-level answer
      // spread as the per-answer variance (a single cell's sample variance
      // degenerates at n=1); raw units, hence the continuous-first bias.
      val n = cellN.getOrElse((i, j), 0L)
      if (n == 0) Double.MaxValue
      else {
        val v = colMoments.get(j).map { case (cn, s, s2) =>
          math.max(s2 / cn - (s / cn) * (s / cn), 1e-6)
        }.getOrElse(1e-6)
        differentialEntropy(v / n)
      }
    }

  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val avail = st.availableCells(u)
    if (avail.isEmpty) return None
    Some(avail.maxBy { case (i, j) => uncertainty(i, j) })
  }
}

/** One measured point of an online run. */
final case class SimPoint(avgAnswersPerTask: Double, errorRate: Double, mnad: Double)

/** Configuration of an online-assignment simulation run. */
final case class SimRunConfig(
    maxAvgAnswers: Double = 4.0,
    checkpointEvery: Double = 0.5,
    batchK: Int = 1,
    tcrowd: TCrowdConfig = TCrowdConfig(maxIters = 8, gdSteps = 3),
    /** metric inference at checkpoints; None = reuse the T-Crowd refresh */
    inference: Option[InferenceMethod] = None,
)

/** Online task-assignment simulation (paper §6.3 / §6.4.2): a worker pool
  * arrives in sequence; the strategy picks the next cell(s); the simulator
  * draws the answer from the same worker model that generated the static
  * datasets; metrics are recorded at answers-per-task checkpoints.
  */
object Assignment {

  /** Inherent gain of assigning cell (i,j) to worker u (paper §5.1, Eq. 6).
    * Cells the snapshot has not seen use the uniform / prior posterior, and
    * unknown workers unit variance.
    */
  def inherentGain(snap: Snapshot, u: Int, i: Int, j: Int): Double =
    if (snap.labelCount.getOrElse(j, 0) > 0)
      InfoGain.categoricalGain(snap.catOf(i, j), snap.res.cellQuality(u, i, j))
    else
      InfoGain.continuousGain(snap.contOf(i, j)._2, snap.res.cellVariance(u, i, j))

  /** §5.2: like inherentGain but with the worker's answer variance replaced
    * by the error distribution predicted from their same-row answers.
    */
  def structureAwareGain(st: AssignState, u: Int, i: Int, j: Int): Double = {
    val snap = st.snapshot
    val predicted = for {
      model <- st.corr
      obs = st.workerErrorsOnRow(u, i)
      if obs.nonEmpty
      d <- model.predict(j, obs)
    } yield d
    predicted match {
      case None => inherentGain(snap, u, i, j)
      case Some(d) =>
        if (snap.labelCount.getOrElse(j, 0) > 0)
          InfoGain.categoricalGain(snap.catOf(i, j), clampProb(1.0 - d.mean))
        else
          // effective answer variance = second moment of the predicted error
          InfoGain.continuousGain(snap.contOf(i, j)._2,
            math.max(d.variance + d.mean * d.mean, 1e-6))
    }
  }

  /** Greedy top-K batch selection (paper §5.3). */
  def pickBatch(strategy: AssignStrategy, st: AssignState, u: Int, k: Int,
                sim: CrowdSim): Seq[Answer] = {
    val out = mutable.Buffer.empty[Answer]
    var t = 0
    var exhausted = false
    while (t < k && !exhausted) {
      strategy.pick(st, u) match {
        case Some((i, j)) =>
          val a = Answer(u, i, j, sim.answerFor(u, i, j))
          st.record(a)
          strategy.observe(u, i, j, a.value)
          if (strategy.needsSnapshot) st.snapshot.applyAnswer(u, i, j, a.value)
          out += a
        case None => exhausted = true
      }
      t += 1
    }
    out.toSeq
  }

  def simulate(sim: CrowdSim, spark: SparkSession, strategy: AssignStrategy,
               cfg: SimRunConfig = SimRunConfig()): Seq[SimPoint] = {
    val columns = sim.columnSpecs
    val labelCount = columns.map(c => c.col -> c.numLabels).toMap
    val truth = Model.truthDf(spark, sim.allTruth).cache()
    truth.count()
    val nCells = sim.cfg.numRows * columns.size

    val st = new AssignState(sim.cfg.numRows, columns,
      new Snapshot(emptyResult, labelCount))

    // Seed: one answer per cell from the row's first assigned worker.
    for (i <- 0 until sim.cfg.numRows; c <- columns) {
      val u = sim.workersFor(i).head
      val a = Answer(u, i, c.col, sim.answerFor(u, i, c.col))
      st.record(a)
      strategy.observe(u, i, c.col, a.value)
    }

    def currentDs: CrowdDataset =
      CrowdDataset(sim.cfg.name, Model.answersDf(spark, st.log.toSeq), columns, truth)

    val points = mutable.Buffer.empty[SimPoint]
    def checkpoint(): Unit = {
      val ds = currentDs
      // Full EM refresh only when the strategy consumes the snapshot /
      // correlation model or the metrics are T-Crowd's own estimates;
      // self-contained systems (CDAS, AskIt, CRH, CATD) skip it.
      val needTc = strategy.needsSnapshot || strategy.needsCorrelation || cfg.inference.isEmpty
      val res = if (needTc) Some(TCrowd.infer(ds, cfg.tcrowd)) else None
      res.foreach(r => if (strategy.needsSnapshot) st.snapshot.refresh(r))
      if (strategy.needsCorrelation) st.corr = res.map(r => Correlation.estimate(ds, r))
      val estimates = cfg.inference match {
        case Some(m) => m.infer(ds)
        case None    => res.get.estimatesLocal
      }
      val (er, mn) = Metrics.evaluate(ds, estimates)
      points += SimPoint(st.log.size.toDouble / nCells, er, mn)
    }

    checkpoint()
    var lastCheckpointSize = st.log.size
    val rounds = math.ceil(cfg.maxAvgAnswers * nCells /
      math.max(1, sim.cfg.numWorkers * cfg.batchK)).toInt + 4
    val arrivals = sim.arrivalSequence(rounds).iterator
    var nextCheckpoint = 1.0 + cfg.checkpointEvery
    var stalled = 0
    while (st.log.size.toDouble / nCells < cfg.maxAvgAnswers && arrivals.hasNext && stalled < 1000) {
      val u = arrivals.next()
      val got = pickBatch(strategy, st, u, cfg.batchK, sim)
      if (got.isEmpty) stalled += 1 else stalled = 0
      if (st.log.size.toDouble / nCells >= nextCheckpoint) {
        checkpoint()
        lastCheckpointSize = st.log.size
        nextCheckpoint += cfg.checkpointEvery
      }
    }
    if (st.log.size != lastCheckpointSize) checkpoint()
    truth.unpersist()
    points.toSeq
  }

  /** An empty inference result used to bootstrap the snapshot before the
    * first refresh (uniform/prior posteriors, unit parameters).
    */
  private[core] val emptyResult: TCrowdResult =
    TCrowdResult(Seq.empty, Map.empty, Map.empty, Map.empty, Map.empty, Map.empty,
      Map.empty, 0, converged = false)
}
