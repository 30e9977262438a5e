package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.MathUtil._
import repro.crowd.CrowdSim
import repro.metrics.Metrics
import scala.annotation.unused
import scala.collection.mutable
import scala.util.Random

/** Driver-side snapshot of the inference state, supporting the paper's
  * accelerated assignment (§5.1): between full EM refreshes, a new answer
  * only updates the answered cell's posterior (Gaussian precision update /
  * likelihood reweighting), so recording an answer costs O(labels) and a
  * pick is one O(cells) scan of dense arrays ([[AssignState.bestOpenCell]]).
  *
  * The snapshot owns the session's table layout: the posteriors of the
  * `numRows` x `columns` table sit in arrays indexed by
  * `row * columns.size + position of the column` ([[Model.columnPositions]]),
  * alpha in an array per row and beta per column position. A refresh
  * copies the result's arrays cell by cell through the result's table and
  * ignores its rows and columns outside this table. A cell the result does
  * not cover, and any cell on a row outside the table, has the uniform
  * (categorical) or `N(0, PriorVar)` (continuous) posterior; a row or
  * column without a difficulty has 1, a worker without a variance 1. A read
  * of a column outside the schema throws an `IllegalArgumentException`
  * naming the column.
  *
  * Each cell's posterior carries a [[stamp]]: `refresh` starts a new epoch
  * (it may change every posterior, alpha, beta and phi) and `applyAnswer`
  * bumps the version of the one cell it updates, so a gain computed at a
  * stamp stays valid while the stamp is unchanged ([[AssignState.bestGainCell]]).
  */
final class Snapshot(initial: TCrowdResult, val numRows: Int, val columns: Seq[ColumnSpec]) {
  private val m = columns.size
  private val labels = columns.map(_.numLabels).toArray
  private val position = Model.columnPositions(columns)
  private val uniform = labels.map(l => Array.fill(l)(1.0 / l))
  private val mu    = new Array[Double](numRows * m)
  private val tphi  = new Array[Double](numRows * m)
  private val cat   = new Array[Array[Double]](numRows * m)
  private val alpha = new Array[Double](numRows)
  private val beta  = new Array[Double](m)
  private val version = new Array[Int](numRows * m)
  private var epoch = 0
  private var current: TCrowdResult = _
  refresh(initial)

  def res: TCrowdResult = current

  def refresh(r: TCrowdResult): Unit = {
    current = r
    epoch += 1
    for (i <- 0 until numRows; p <- 0 until m) {
      val k = i * m + p
      mu(k) = 0.0; tphi(k) = Model.PriorVar; cat(k) = uniform(p)
    }
    val t = r.table
    for (c <- t.cellIds.indices; k = index(t.cellIds(c)._1, t.cellIds(c)._2) if k >= 0)
      if (t.cellLabels(c) > 0) cat(k) = r.post(c) else { mu(k) = r.mu(c); tphi(k) = r.tphi(c) }
    java.util.Arrays.fill(alpha, 1.0)
    for (x <- t.rowIds.indices if hasRow(t.rowIds(x))) alpha(t.rowIds(x)) = r.alpha(x)
    for (p <- 0 until m) { val q = t.colPos(columns(p).col); beta(p) = if (q < 0) 1.0 else r.beta(q) }
  }

  /** The position of column j in `columns`.
    *
    * @throws IllegalArgumentException if j is not in the schema
    */
  private def schemaPosition(j: Int): Int = {
    val p = position(j)
    if (p < 0) throw new IllegalArgumentException(s"column $j is not in the schema")
    p
  }

  /** Dense index of cell (i, j); -1 if the row or the column is outside the table. */
  private[core] def index(i: Int, j: Int): Int = {
    val p = position(j)
    if (i < 0 || i >= numRows || p < 0) -1 else i * m + p
  }

  private def hasRow(i: Int): Boolean = i >= 0 && i < numRows

  /** The epoch of the last refresh and the version of cell k (an [[index]])
    * in it, as one number; it changes whenever cell k's posterior or any
    * refreshed parameter may have.
    */
  private[core] def stamp(k: Int): Long = (epoch.toLong << 32) | (version(k) & 0xffffffffL)

  def isCategorical(j: Int): Boolean = labels(schemaPosition(j)) > 0

  def contOf(i: Int, j: Int): (Double, Double) = {
    val p = schemaPosition(j)
    if (hasRow(i)) (mu(i * m + p), tphi(i * m + p)) else (0.0, Model.PriorVar)
  }

  def catOf(i: Int, j: Int): Array[Double] = {
    val p = schemaPosition(j)
    if (hasRow(i)) cat(i * m + p) else uniform(p)
  }

  /** Variance `phi_u` of worker u. */
  def workerVariance(u: Int): Double = {
    val x = java.util.Arrays.binarySearch(current.table.workerIds, u)
    if (x >= 0) current.phi(x) else 1.0
  }

  /** Answer variance `alpha_i * beta_j * phi` on cell (i, j) of a worker with variance `phi`. */
  def answerVariance(phi: Double, i: Int, j: Int): Double =
    (if (hasRow(i)) alpha(i) else 1.0) * beta(schemaPosition(j)) * phi

  /** Current point estimate of a cell (normalized space for continuous). */
  def estimateOf(i: Int, j: Int): Double =
    if (isCategorical(j)) argmax(catOf(i, j)).toDouble
    else contOf(i, j)._1

  /** Normalize a raw continuous answer with the snapshot's column stats. */
  def normalize(j: Int, v: Double): Double = Model.normalize(current.table.stats, j, v)

  /** Local Bayesian update of cell (i,j)'s posterior with a new raw answer.
    *
    * @throws IllegalArgumentException naming the cell, for a cell outside
    *         the table or a categorical answer that is not a [[Model.label]]
    */
  def applyAnswer(u: Int, i: Int, j: Int, raw: Double): Unit = {
    val k = index(i, j)
    require(k >= 0, s"cell ($i, $j) is outside the ${numRows}-row table")
    val l = labels(k % m)
    val label = if (l > 0) Model.label(i, j, raw, l) else -1
    val v = answerVariance(workerVariance(u), i, j)
    version(k) += 1
    if (l > 0) {
      cat(k) = InfoGain.answerPosterior(cat(k), quality(TCrowd.Eps, v), label)
    } else {
      val w = 1.0 / math.max(v, 1e-9)
      val nphi = 1.0 / (1.0 / tphi(k) + w)
      mu(k) = (mu(k) / tphi(k) + w * normalize(j, raw)) * nphi
      tphi(k) = nphi
    }
  }
}

/** An online task-assignment policy. A policy reads the session's answers
  * from [[AssignState.log]].
  */
trait AssignStrategy {
  def name: String
  /** Whether the policy needs a T-Crowd snapshot (IG/entropy strategies). */
  def needsSnapshot: Boolean = false
  /** Whether the policy needs the §5.2 correlation model. */
  def needsCorrelation: Boolean = false
  def pick(st: AssignState, u: Int): Option[(Int, Int)]
  /** No longer called: every policy reads [[AssignState.log]]. It stays
    * only because the benchmark harness's `TimedStrategy` overrides it, and
    * goes when that harness moves onto the current API (ROADMAP item 3).
    */
  def observe(u: Int, i: Int, j: Int, value: Double): Unit = {}
}

/** Mutable state shared by the simulation loop and the strategies, on the
  * table of its snapshot (`snapshot.numRows` rows, `snapshot.columns`).
  * [[log]] is the one store of the session's answers. Next to it each worker
  * has one record in the snapshot's cell layout: the log position of the
  * worker's answer on each cell, and the worker's memoized gains
  * ([[bestGainCell]]). So the open cells are one scan in row-then-`columns`
  * order.
  */
final class AssignState(val snapshot: Snapshot) {
  private val numRows = snapshot.numRows
  private val colIds = snapshot.columns.map(_.col).toArray
  private val numCells = numRows * colIds.length
  /** Label count of the column at each position; 0 if continuous. */
  private val numLabels = snapshot.columns.map(_.numLabels).toArray
  var corr: Option[CorrelationModel] = None
  private val workers = mutable.Map.empty[Int, AssignState.WorkerRecord]
  val log: mutable.Buffer[Answer] = mutable.Buffer.empty

  private def recordOf(u: Int): AssignState.WorkerRecord =
    workers.getOrElseUpdate(u, new AssignState.WorkerRecord(numCells))

  /** Appends an answer to the session: every logged answer is one that
    * [[Model.answerTable]] accepts.
    *
    * @throws IllegalArgumentException naming the cell, for a cell outside
    *         the table, a second answer of the worker on the cell, a
    *         categorical answer that is not a [[Model.label]] or a continuous
    *         answer that is not finite
    */
  def record(a: Answer): Unit = {
    val k = snapshot.index(a.row, a.col)
    require(k >= 0, s"answer on cell (${a.row}, ${a.col}) outside the ${numRows}-row table")
    if (isAnswered(a.worker, a.row, a.col))
      throw new IllegalArgumentException(s"worker ${a.worker} answered cell (${a.row}, ${a.col}) twice")
    val l = numLabels(k % colIds.length)
    if (l > 0) Model.label(a.row, a.col, a.value, l)
    else require(java.lang.Double.isFinite(a.value), s"answer ${a.value} on cell (${a.row}, ${a.col}) is not a finite number")
    recordOf(a.worker).answer(k) = log.size
    log += a
  }

  def isAnswered(u: Int, i: Int, j: Int): Boolean = {
    val k = snapshot.index(i, j)
    k >= 0 && workers.get(u).exists(_.answer(k) >= 0)
  }

  /** The memoized gains of worker u whose stamp is current: each cell with
    * the gain a pick would read without computing it again.
    */
  private[core] def memoizedGains(u: Int): Seq[((Int, Int), Double)] =
    workers.get(u).fold(Seq.empty[((Int, Int), Double)]) { g =>
      val m = colIds.length
      (0 until numCells).filter(k => g.stamp(k) == snapshot.stamp(k)).map(k => ((k / m, colIds(k % m)), g.value(k)))
    }

  /** The cells worker u has not answered, in row-then-`columns` order. */
  def availableCells(u: Int): IndexedSeq[(Int, Int)] = {
    val done = workers.getOrElse(u, null)
    val m = colIds.length
    (0 until numCells).collect { case k if done == null || done.answer(k) < 0 => (k / m, colIds(k % m)) }
  }

  /** The open cell of worker u with the greatest score, scanning as
    * [[availableCells]] orders them. `rowScore(i)` is called once per row
    * that has an open cell and gives the score of each column j of row i.
    * A cell replaces the best so far only if its score is greater under
    * `java.lang.Double.compare` (the total order `maxBy` uses for doubles),
    * so ties go to the first cell.
    */
  def bestOpenCell(u: Int)(rowScore: Int => Int => Double): Option[(Int, Int)] = {
    val done = workers.getOrElse(u, null)
    val m = colIds.length
    var best = -1
    var bestScore = 0.0
    var i = 0
    while (i < numRows) {
      var score: Int => Double = null
      var p = 0
      while (p < m) {
        val k = i * m + p
        if (done == null || done.answer(k) < 0) {
          if (score == null) score = rowScore(i)
          val s = score(colIds(p))
          if (best < 0 || java.lang.Double.compare(s, bestScore) > 0) { best = k; bestScore = s }
        }
        p += 1
      }
      i += 1
    }
    if (best < 0) None else Some((best / m, colIds(best % m)))
  }

  /** The open cell of worker u with the greatest gain, chosen as
    * [[bestOpenCell]] chooses. On a row where u has answered a cell,
    * `rowPrediction(i)` is called once and gives, for each column j, the
    * §5.2 error distribution predicted for u on (i, j), if any; such a cell
    * scores [[Assignment.predictedGain]]. Every other cell scores u's
    * [[Assignment.inherentGain]], read from u's memo: the gain last computed
    * on the cell, recomputed only when the cell's [[Snapshot.stamp]] has
    * changed since. Within a stamp the gain's inputs (phi_u, alpha_i,
    * beta_j and the cell's posterior) are fixed, so a memoized gain is the
    * one a fresh computation gives, to the bit.
    */
  def bestGainCell(u: Int)(rowPrediction: Int => Int => Option[CondDist]): Option[(Int, Int)] = {
    val g = recordOf(u)
    val phi = snapshot.workerVariance(u)
    bestOpenCell(u) { i =>
      val predict = if (answersRow(g, i)) rowPrediction(i) else null
      j => {
        val d = if (predict == null) None else predict(j)
        if (d.isDefined) Assignment.predictedGain(snapshot, d.get, i, j)
        else {
          val k = snapshot.index(i, j)
          val now = snapshot.stamp(k)
          if (g.stamp(k) != now) { g.value(k) = Assignment.inherentGain(snapshot, phi, i, j); g.stamp(k) = now }
          g.value(k)
        }
      }
    }
  }

  /** Whether the worker of record `rec` has answered a cell of row i. */
  private def answersRow(rec: AssignState.WorkerRecord, i: Int): Boolean = {
    val end = (i + 1) * colIds.length
    var k = i * colIds.length
    while (k < end && rec.answer(k) < 0) k += 1
    k < end
  }

  /** Worker u's observed errors on row i vs the current snapshot estimates
    * (0/1 for categorical, normalized signed difference for continuous), in
    * the order u answered them; none on a row outside the table.
    */
  def workerErrorsOnRow(u: Int, i: Int): Seq[(Int, Double)] = workers.get(u) match {
    case Some(rec) if i >= 0 && i < numRows =>
      rec.answer.slice(i * colIds.length, (i + 1) * colIds.length).filter(_ >= 0).sorted.toSeq.map { x =>
        val (j, raw) = (log(x).col, log(x).value)
        if (snapshot.isCategorical(j)) {
          val est = snapshot.estimateOf(i, j)
          j -> (if (est.toInt == raw.toInt) 0.0 else 1.0)
        } else {
          j -> (snapshot.normalize(j, raw) - snapshot.contOf(i, j)._1)
        }
      }
    case _ => Seq.empty
  }
}

object AssignState {
  /** One worker's record over the cells of a [[Snapshot]]: the log position
    * of the worker's answer on each cell (-1: none), and the gain memo, the
    * last gain computed on each cell and the cell's stamp then (-1: none yet).
    */
  private final class WorkerRecord(n: Int) {
    val answer: Array[Int] = Array.fill(n)(-1)
    val value = new Array[Double](n)
    val stamp: Array[Long] = Array.fill(n)(-1L)
  }
}

/** Uniform-random assignment (the CRH/CATD/CrowdDB setting in the paper). */
final class RandomStrategy(seed: Long) extends AssignStrategy {
  val name = "Random"
  private val rng = new Random(seed)
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val avail = st.availableCells(u)
    if (avail.isEmpty) None else Some(avail(rng.nextInt(avail.size)))
  }
}

/** Round-robin over cells (paper §6.4.2 "Looping"). */
final class LoopingStrategy extends AssignStrategy {
  val name = "Looping"
  private var ptr = 0
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val columns = st.snapshot.columns
    val m = columns.size
    val total = st.snapshot.numRows * m
    var tried = 0
    while (tried < total) {
      val cell = (ptr / m, columns(ptr % m).col)
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
    st.bestOpenCell(u)(i => j => InfoGain.uniformEntropy(snap.isCategorical(j), snap.catOf(i, j), snap.contOf(i, j)._2))
  }
}

/** Inherent information gain (paper §5.1). */
final class InherentGainStrategy extends AssignStrategy {
  val name = "Inherent IG"
  override val needsSnapshot = true
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = st.bestGainCell(u)(Assignment.noPrediction)
}

/** Structure-aware information gain (paper §5.2): the worker's expected
  * error on a candidate cell is conditioned on their observed errors in the
  * same row through the correlation model. A cell without a prediction (no
  * model, no answer of the worker on the row, or no co-observed attribute)
  * scores its inherent gain ([[AssignState.bestGainCell]]).
  */
final class StructGainStrategy extends AssignStrategy {
  val name = "Struct IG"
  override val needsSnapshot = true
  override val needsCorrelation = true
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = st.corr match {
    case None        => st.bestGainCell(u)(Assignment.noPrediction)
    case Some(model) => st.bestGainCell(u) { i =>
      val obs = st.workerErrorsOnRow(u, i)
      j => model.predict(j, obs)
    }
  }
}

/** Base of CDAS and AskIt, which score a cell by the answers in the
  * session's [[AssignState.log]], tallied in arrays in the [[Snapshot]]'s
  * cell layout. Each pick first tallies the log from where the last one
  * stopped, so one instance serves one session.
  */
sealed abstract class TallyStrategy(catCols: Set[Int]) extends AssignStrategy {
  private var tallied = 0
  // per cell: in catCols?, votes per label, answers, sum, sum of squares, rescore; the sums per column
  protected var categorical: Array[Boolean] = _
  protected var votes: Array[Array[Int]] = _
  protected var count, sum, sumSq, score, colCount, colSum, colSumSq: Array[Double] = _

  /** The strategy's score of cell k, from the cell's tallies. */
  protected def rescore(k: Int): Double

  protected def tally(st: AssignState): Unit = {
    val columns = st.snapshot.columns
    val (m, n) = (columns.size, st.snapshot.numRows * columns.size)
    if (count == null) {
      categorical = Array.tabulate(n)(k => catCols.contains(columns(k % m).col))
      votes = Array.tabulate(n)(k => new Array[Int](columns(k % m).numLabels))
      count = new Array(n); sum = new Array(n); sumSq = new Array(n); score = new Array(n)
      colCount = new Array(m); colSum = new Array(m); colSumSq = new Array(m)
    }
    while (tallied < st.log.size) {
      val a = st.log(tallied)
      tallied += 1
      val (k, v) = (st.snapshot.index(a.row, a.col), a.value)
      if (categorical(k)) votes(k)(Model.label(a.row, a.col, v, votes(k).length)) += 1
      else { sum(k) += v; sumSq(k) += v * v; colCount(k % m) += 1; colSum(k % m) += v; colSumSq(k % m) += v * v }
      count(k) += 1
      score(k) = rescore(k)
    }
  }
}

/** CDAS [20]: tasks whose current estimate is confident are terminated; the
  * next task is random among non-terminated ones. A cell with at least
  * `MinAnswers` answers is confident if its leading vote share reaches
  * `VoteShare` (categorical) or its standard error `sqrt(v / n)` is at most
  * `SemRatio` times its answer spread `sqrt(v)` (continuous). The spread
  * cancels, so the continuous rule holds only once `n >= (1 / SemRatio)^2
  * = 16` or when the cell's answers are all the same: in a session of at
  * most 4 answers per cell, only identical answers terminate a continuous
  * cell. A terminated cell scores 1.
  */
final class CdasStrategy(catCols: Set[Int], seed: Long = 2L) extends TallyStrategy(catCols) {
  import CdasStrategy.{MinAnswers, SemRatio, VoteShare}
  val name = "CDAS"
  private val rng = new Random(seed)

  protected def rescore(k: Int): Double = {
    val n = count(k)
    val mean = sum(k) / n
    val v = math.max(sumSq(k) / n - mean * mean, 0.0)
    val terminated = n >= MinAnswers && (
      if (categorical(k)) votes(k).max / n >= VoteShare
      else math.sqrt(v / n) <= SemRatio * math.max(math.sqrt(v), 1e-9))
    if (terminated) 1.0 else 0.0
  }

  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    tally(st)
    val avail = st.availableCells(u)
    if (avail.isEmpty) return None
    val open = avail.filter { case (i, j) => score(st.snapshot.index(i, j)) == 0.0 }
    val pool = if (open.nonEmpty) open else avail
    Some(pool(rng.nextInt(pool.size)))
  }
}

/** CDAS's termination thresholds, described on the class. */
object CdasStrategy { val MinAnswers = 3; val VoteShare = 0.8; val SemRatio = 0.25 }

/** AskIt! [5]: next task = highest uncertainty, measured on the raw answer
  * distribution (vote entropy / differential entropy of the sample-mean
  * distribution). Datatype-blind and worker-blind, hence the continuous-first
  * bias the paper describes. A categorical cell scores its vote entropy.
  */
final class AskItStrategy(catCols: Set[Int]) extends TallyStrategy(catCols) {
  val name = "AskIt"

  protected def rescore(k: Int): Double =
    if (categorical(k)) shannonEntropy(votes(k).map(_ / count(k))) else 0.0

  private def uncertainty(k: Int): Double =
    if (count(k) == 0) { if (categorical(k)) 10.0 else Double.MaxValue } // unanswered: maximal urgency
    else if (categorical(k)) score(k)
    else {
      // variance of the cell's sample mean, with the column-level answer
      // spread as the per-answer variance (a single cell's sample variance
      // degenerates at n=1); raw units, hence the continuous-first bias.
      val p = k % colCount.length
      val (cn, s, s2) = (colCount(p), colSum(p), colSumSq(p))
      differentialEntropy(math.max(s2 / cn - (s / cn) * (s / cn), 1e-6) / count(k))
    }

  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    tally(st)
    st.bestOpenCell(u)(i => j => uncertainty(st.snapshot.index(i, j)))
  }
}

/** One measured point of an online run. */
final case class SimPoint(avgAnswersPerTask: Double, errorRate: Double, mnad: Double)

/** Configuration of an online-assignment simulation run. */
final case class SimRunConfig(
    maxAvgAnswers: Double,
    checkpointEvery: Double,
    tcrowd: TCrowdConfig = TCrowdConfig(maxIters = 8, gdSteps = 3),
    /** metric inference at checkpoints; None = reuse the T-Crowd refresh */
    inference: Option[InferenceMethod] = None,
)

/** Online task-assignment simulation (paper §6.3 / §6.4.2): a worker pool
  * arrives in sequence; the strategy picks one cell per arrival; the simulator
  * draws the answer from the same worker model that generated the static
  * datasets; metrics are recorded at answers-per-task checkpoints.
  */
object Assignment {

  /** Inherent gain of assigning cell (i,j) to a worker with variance `phi`
    * (paper §5.1, Eq. 6; `phi` is [[Snapshot.workerVariance]], which is 1 for
    * an unknown worker). Cells the snapshot has not seen use the uniform /
    * prior posterior.
    */
  def inherentGain(snap: Snapshot, phi: Double, i: Int, j: Int): Double = {
    val v = snap.answerVariance(phi, i, j)
    if (snap.isCategorical(j)) InfoGain.categoricalGain(snap.catOf(i, j), quality(TCrowd.Eps, v))
    else InfoGain.continuousGain(snap.contOf(i, j)._2, v)
  }

  /** No §5.2 prediction on any row: [[AssignState.bestGainCell]] by inherent gain. */
  private[core] val noPrediction: Int => Int => Option[CondDist] = _ => _ => None

  /** §5.2: [[inherentGain]] of cell (i, j) with the worker's answer
    * variance replaced by the error distribution `d` that the correlation
    * model predicts from the worker's errors on row i
    * ([[AssignState.workerErrorsOnRow]]).
    */
  def predictedGain(snap: Snapshot, d: CondDist, i: Int, j: Int): Double =
    if (snap.isCategorical(j))
      InfoGain.categoricalGain(snap.catOf(i, j), clampProb(1.0 - d.mean))
    else
      // effective answer variance = second moment of the predicted error
      InfoGain.continuousGain(snap.contOf(i, j)._2,
        math.max(d.variance + d.mean * d.mean, 1e-6))

  /** One online session of `strategy` on the simulated crowd `sim`. It runs
    * on the driver and issues no Spark job: each checkpoint builds the
    * [[AnswerTable]] of the answers so far and scores against
    * `sim.allTruth`. `spark` is unused; it stays in the signature for the
    * callers that pass it, among them the perfbench harness.
    */
  def simulate(sim: CrowdSim, @unused spark: SparkSession, strategy: AssignStrategy,
               cfg: SimRunConfig): Seq[SimPoint] = {
    val columns = sim.columnSpecs
    val truth = sim.allTruth
    val nCells = sim.cfg.numRows * columns.size

    val st = new AssignState(new Snapshot(emptyResult, sim.cfg.numRows, columns))

    // Worker u answers cell (i, j). Applying a seeding answer to the snapshot
    // changes nothing: the first checkpoint's refresh resets every cell.
    def answer(u: Int, i: Int, j: Int): Unit = {
      val v = sim.answerFor(u, i, j)
      st.record(Answer(u, i, j, v))
      if (strategy.needsSnapshot) st.snapshot.applyAnswer(u, i, j, v)
    }

    // Seed: one answer per cell from the row's first assigned worker.
    for (i <- 0 until sim.cfg.numRows) {
      val u = sim.workersFor(i).head
      columns.foreach(c => answer(u, i, c.col))
    }

    val points = mutable.Buffer.empty[SimPoint]
    def checkpoint(): Unit = {
      val t = Model.answerTable(columns, st.log)
      // Full EM refresh only when the strategy consumes the snapshot /
      // correlation model or the metrics are T-Crowd's own estimates;
      // self-contained systems (CDAS, AskIt, CRH, CATD) skip it.
      val needTc = strategy.needsSnapshot || strategy.needsCorrelation || cfg.inference.isEmpty
      val res = if (needTc) Some(TCrowd.infer(t, cfg.tcrowd)) else None
      res.foreach(r => if (strategy.needsSnapshot) st.snapshot.refresh(r))
      if (strategy.needsCorrelation) st.corr = res.map(Correlation.estimate)
      val estimates = cfg.inference match {
        case Some(m) => m.infer(t)
        case None    => res.get.estimatesLocal
      }
      val (er, mn) = Metrics.evaluate(t, truth, estimates)
      points += SimPoint(st.log.size.toDouble / nCells, er, mn)
    }

    checkpoint()
    var lastCheckpointSize = st.log.size
    val rounds = math.ceil(cfg.maxAvgAnswers * nCells / math.max(1, sim.cfg.numWorkers)).toInt + 4
    val arrivals = sim.arrivalSequence(rounds).iterator
    var nextCheckpoint = 1.0 + cfg.checkpointEvery
    var stalled = 0
    while (st.log.size.toDouble / nCells < cfg.maxAvgAnswers && arrivals.hasNext && stalled < 1000) {
      val u = arrivals.next()
      strategy.pick(st, u) match {
        case Some((i, j)) => answer(u, i, j); stalled = 0
        case None         => stalled += 1
      }
      if (st.log.size.toDouble / nCells >= nextCheckpoint) {
        checkpoint()
        lastCheckpointSize = st.log.size
        nextCheckpoint += cfg.checkpointEvery
      }
    }
    if (st.log.size != lastCheckpointSize) checkpoint()
    points.toSeq
  }

  /** The result of an empty table, which bootstraps the snapshot before the
    * first refresh (uniform/prior posteriors, unit parameters).
    */
  private[core] val emptyResult: TCrowdResult =
    TCrowd.infer(Model.answerTable(Seq.empty, Nil), TCrowdConfig(maxIters = 0, gdSteps = 0))
}
