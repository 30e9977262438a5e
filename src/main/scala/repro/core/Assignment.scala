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
  * likelihood reweighting), so recording an answer costs O(labels) and a
  * pick is one O(cells) scan of dense arrays ([[AssignState.bestOpenCell]]).
  *
  * The posteriors of the `numRows` x `columns` table sit in arrays indexed
  * by `row * columns.size + position of the column in columns`, alpha in an
  * array per row and beta per column position. A cell the result does not
  * cover, and any cell on a row outside the table, has the uniform
  * (categorical) or `N(0, PriorVar)` (continuous) posterior; a row or
  * column without a difficulty has 1, a worker without a variance 1.
  */
final class Snapshot(initial: TCrowdResult, val numRows: Int, val columns: Seq[ColumnSpec]) {
  private val m = columns.size
  private val labels = columns.map(_.numLabels).toArray
  /** Position in `columns` of each column id; -1 for an id not in the schema. */
  private val position: Array[Int] = {
    val p = Array.fill(columns.map(_.col + 1).maxOption.getOrElse(0))(-1)
    columns.zipWithIndex.foreach { case (c, k) => p(c.col) = k }
    p
  }
  private val uniform = labels.map(l => Array.fill(l)(1.0 / l))
  private val mu    = new Array[Double](numRows * m)
  private val tphi  = new Array[Double](numRows * m)
  private val cat   = new Array[Array[Double]](numRows * m)
  private val alpha = new Array[Double](numRows)
  private val beta  = new Array[Double](m)
  private var current: TCrowdResult = _
  refresh(initial)

  def res: TCrowdResult = current

  def refresh(r: TCrowdResult): Unit = {
    current = r
    for (i <- 0 until numRows; p <- 0 until m) {
      val k = i * m + p
      mu(k) = 0.0; tphi(k) = Model.PriorVar; cat(k) = uniform(p)
    }
    for (((i, j), (mean, v)) <- r.contPosterior) { val k = index(i, j); if (k >= 0) { mu(k) = mean; tphi(k) = v } }
    for (((i, j), probs) <- r.catPosterior) { val k = index(i, j); if (k >= 0) cat(k) = probs }
    for (i <- 0 until numRows) alpha(i) = r.alpha.getOrElse(i, 1.0)
    for (p <- 0 until m) beta(p) = r.beta.getOrElse(columns(p).col, 1.0)
  }

  private def positionOf(j: Int): Int = if (j >= 0 && j < position.length) position(j) else -1

  /** Dense index of cell (i, j); -1 if the row or the column is outside the table. */
  private[core] def index(i: Int, j: Int): Int = {
    val p = positionOf(j)
    if (i < 0 || i >= numRows || p < 0) -1 else i * m + p
  }

  def isCategorical(j: Int): Boolean = { val p = positionOf(j); p >= 0 && labels(p) > 0 }

  def contOf(i: Int, j: Int): (Double, Double) = {
    val k = index(i, j)
    if (k < 0) (0.0, Model.PriorVar) else (mu(k), tphi(k))
  }

  def catOf(i: Int, j: Int): Array[Double] = {
    val k = index(i, j)
    if (k < 0) uniform(positionOf(j)) else cat(k)
  }

  /** Variance `phi_u` of worker u. */
  def workerVariance(u: Int): Double = current.phi.getOrElse(u, 1.0)

  /** Answer variance `alpha_i * beta_j * phi` on cell (i, j) of a worker with variance `phi`. */
  def answerVariance(phi: Double, i: Int, j: Int): Double = {
    val p = positionOf(j)
    (if (i >= 0 && i < numRows) alpha(i) else 1.0) * (if (p >= 0) beta(p) else 1.0) * phi
  }

  /** Current point estimate of a cell (normalized space for continuous). */
  def estimateOf(i: Int, j: Int): Double =
    if (isCategorical(j)) argmax(catOf(i, j)).toDouble
    else contOf(i, j)._1

  /** Normalize a raw continuous answer with the snapshot's column stats. */
  def normalize(j: Int, v: Double): Double = Model.normalize(current.contStats, j, v)

  /** Local Bayesian update of cell (i,j)'s posterior with a new raw answer. */
  def applyAnswer(u: Int, i: Int, j: Int, raw: Double): Unit = {
    val k = index(i, j)
    require(k >= 0, s"cell ($i, $j) is outside the ${numRows}-row table")
    val v = answerVariance(workerVariance(u), i, j)
    if (isCategorical(j)) {
      cat(k) = InfoGain.answerPosterior(cat(k), quality(TCrowd.Eps, v), raw.toInt)
    } else {
      val w = 1.0 / math.max(v, 1e-9)
      val nphi = 1.0 / (1.0 / tphi(k) + w)
      mu(k) = (mu(k) / tphi(k) + w * normalize(j, raw)) * nphi
      tphi(k) = nphi
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

/** Mutable state shared by the simulation loop and the strategies. Each
  * worker's answered cells are a boolean array in the snapshot's cell
  * layout, so the open cells are one scan in row-then-`columns` order.
  */
final class AssignState(
    val numRows: Int,
    val columns: Seq[ColumnSpec],
    val snapshot: Snapshot,
) {
  require(snapshot.numRows == numRows && snapshot.columns == columns,
    "the snapshot must cover the state's table")
  private val colIds = columns.map(_.col).toArray
  var corr: Option[CorrelationModel] = None
  private val answered = mutable.Map.empty[Int, Array[Boolean]]
  /** (worker,row) -> answered (col, rawValue) pairs, for §5.2 row context. */
  val rowAnswers: mutable.Map[(Int, Int), mutable.Buffer[(Int, Double)]] = mutable.Map.empty
  val log: mutable.Buffer[Answer] = mutable.Buffer.empty

  def record(a: Answer): Unit = {
    val k = snapshot.index(a.row, a.col)
    require(k >= 0, s"answer on cell (${a.row}, ${a.col}) outside the ${numRows}-row table")
    log += a
    answered.getOrElseUpdate(a.worker, new Array[Boolean](numRows * columns.size))(k) = true
    rowAnswers.getOrElseUpdate((a.worker, a.row), mutable.Buffer.empty) += ((a.col, a.value))
  }

  def isAnswered(u: Int, i: Int, j: Int): Boolean = {
    val k = snapshot.index(i, j)
    k >= 0 && answered.get(u).exists(_(k))
  }

  /** Calls `visit(i, j)` for each cell worker u has not answered, row by
    * row and within a row in `columns` order.
    */
  private def foreachOpenCell(u: Int)(visit: (Int, Int) => Unit): Unit = {
    val done = answered.getOrElse(u, null)
    val m = colIds.length
    var i = 0
    while (i < numRows) {
      var p = 0
      while (p < m) {
        if (done == null || !done(i * m + p)) visit(i, colIds(p))
        p += 1
      }
      i += 1
    }
  }

  /** The cells worker u has not answered, in row-then-`columns` order. */
  def availableCells(u: Int): IndexedSeq[(Int, Int)] = {
    val open = IndexedSeq.newBuilder[(Int, Int)]
    foreachOpenCell(u)((i, j) => open += ((i, j)))
    open.result()
  }

  /** The open cell of worker u with the greatest score, scanning as
    * [[availableCells]] orders them. `rowScore(i)` is called once per row
    * that has an open cell and gives the score of each column j of row i.
    * A cell replaces the best so far only if its score is greater under
    * `java.lang.Double.compare` (the total order `maxBy` uses for doubles),
    * so ties go to the first cell.
    */
  def bestOpenCell(u: Int)(rowScore: Int => Int => Double): Option[(Int, Int)] = {
    var bestRow, bestCol = -1
    var bestScore = 0.0
    var row = -1
    var score: Int => Double = null
    foreachOpenCell(u) { (i, j) =>
      if (i != row) { row = i; score = rowScore(i) }
      val s = score(j)
      if (bestRow < 0 || java.lang.Double.compare(s, bestScore) > 0) { bestRow = i; bestCol = j; bestScore = s }
    }
    if (bestRow < 0) None else Some((bestRow, bestCol))
  }

  /** Worker u's observed errors on row i vs the current snapshot estimates
    * (0/1 for categorical, normalized signed difference for continuous), in
    * the order u answered them.
    */
  def workerErrorsOnRow(u: Int, i: Int): Seq[(Int, Double)] =
    rowAnswers.get((u, i)).fold(Seq.empty[(Int, Double)])(_.toSeq.map { case (j, raw) =>
      if (snapshot.isCategorical(j)) {
        val est = snapshot.estimateOf(i, j)
        j -> (if (est.toInt == raw.toInt) 0.0 else 1.0)
      } else {
        j -> (snapshot.normalize(j, raw) - snapshot.contOf(i, j)._1)
      }
    })
}

/** Uniform-random assignment (the CRH/CATD/CrowdDB setting in the paper). */
final class RandomStrategy(seed: Long = 1L) extends AssignStrategy {
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
    st.bestOpenCell(u)(i => j => InfoGain.uniformEntropy(snap.isCategorical(j), snap.catOf(i, j), snap.contOf(i, j)._2))
  }
}

/** Inherent information gain (paper §5.1). */
final class InherentGainStrategy extends AssignStrategy {
  val name = "Inherent IG"
  override val needsSnapshot = true
  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val snap = st.snapshot
    val phi = snap.workerVariance(u)
    st.bestOpenCell(u)(i => j => Assignment.inherentGain(snap, phi, i, j))
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
    val phi = st.snapshot.workerVariance(u)
    st.bestOpenCell(u) { i =>
      val obs = if (st.corr.isEmpty) Nil else st.workerErrorsOnRow(u, i)
      j => Assignment.structureAwareGain(st, phi, obs, i, j)
    }
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
    val avail = st.availableCells(u)
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

  def pick(st: AssignState, u: Int): Option[(Int, Int)] =
    st.bestOpenCell(u)(i => j => uncertainty(i, j))
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
    inherentGain(snap, snap.workerVariance(u), i, j)

  /** [[inherentGain]] of a worker with variance `phi`. */
  private[core] def inherentGain(snap: Snapshot, phi: Double, i: Int, j: Int): Double = {
    val v = snap.answerVariance(phi, i, j)
    if (snap.isCategorical(j)) InfoGain.categoricalGain(snap.catOf(i, j), quality(TCrowd.Eps, v))
    else InfoGain.continuousGain(snap.contOf(i, j)._2, v)
  }

  /** §5.2: like inherentGain but with the worker's answer variance replaced
    * by the error distribution predicted from their same-row answers.
    */
  def structureAwareGain(st: AssignState, u: Int, i: Int, j: Int): Double =
    structureAwareGain(st, st.snapshot.workerVariance(u), st.workerErrorsOnRow(u, i), i, j)

  /** [[structureAwareGain]] of a worker with variance `phi` and errors `obs` on row i. */
  private[core] def structureAwareGain(st: AssignState, phi: Double, obs: Seq[(Int, Double)],
                                       i: Int, j: Int): Double = {
    val snap = st.snapshot
    val predicted = if (obs.isEmpty) None else st.corr.flatMap(_.predict(j, obs))
    predicted match {
      case None => inherentGain(snap, phi, i, j)
      case Some(d) =>
        if (snap.isCategorical(j))
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

  /** One online session of `strategy` on the simulated crowd `sim`. It runs
    * on the driver and issues no Spark job: each checkpoint builds the
    * [[AnswerTable]] of the answers so far and scores against
    * `sim.allTruth`. `spark` is unused; it stays in the signature for the
    * callers that pass it, among them the perfbench harness.
    */
  def simulate(sim: CrowdSim, spark: SparkSession, strategy: AssignStrategy,
               cfg: SimRunConfig = SimRunConfig()): Seq[SimPoint] = {
    val columns = sim.columnSpecs
    val truth = sim.allTruth
    val nCells = sim.cfg.numRows * columns.size

    val st = new AssignState(sim.cfg.numRows, columns,
      new Snapshot(emptyResult, sim.cfg.numRows, columns))

    // Seed: one answer per cell from the row's first assigned worker.
    for (i <- 0 until sim.cfg.numRows; c <- columns) {
      val u = sim.workersFor(i).head
      val a = Answer(u, i, c.col, sim.answerFor(u, i, c.col))
      st.record(a)
      strategy.observe(u, i, c.col, a.value)
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
      if (strategy.needsCorrelation) st.corr = res.map(r => Correlation.estimate(t, r))
      val estimates = cfg.inference match {
        case Some(m) => m.infer(t)
        case None    => res.get.estimatesLocal
      }
      val (er, mn) = Metrics.evaluate(t, truth, estimates)
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
    points.toSeq
  }

  /** An empty inference result used to bootstrap the snapshot before the
    * first refresh (uniform/prior posteriors, unit parameters).
    */
  private[core] val emptyResult: TCrowdResult =
    TCrowdResult(Seq.empty, Map.empty, Map.empty, Map.empty, Map.empty, Map.empty,
      Map.empty, 0, converged = false)
}
