package repro.crowd

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core._
import scala.util.Random
import scala.util.hashing.MurmurHash3

/** Schema + domain of one simulated column.
  *
  * @param numLabels 0 for continuous; otherwise label-set size
  * @param lo,hi     domain of a continuous column (ignored for categorical)
  * @param beta      intrinsic column difficulty multiplier (paper's beta_j)
  */
final case class SimColumn(name: String, numLabels: Int, lo: Double = 0.0,
                           hi: Double = 1.0, beta: Double = 1.0) {
  def isCategorical: Boolean = numLabels > 0
}

/** Parameters of a simulated crowdsourcing run.
  *
  * The answer model mirrors (and extends) the paper's §4 generative model:
  * answer variance on cell (i,j) for worker u is
  * `alpha_i * beta_j * phi_u * rho_{u,i}` where `rho` is a per-(worker,row)
  * "recognition" effect. `rho` is what creates the *intra-row* error
  * correlation that §5.2's structure-aware gain exploits (a worker who does
  * not recognize the entity of row i is bad at every cell of row i, like
  * worker u3 in the paper's Table 2). A `spammerFrac` of workers has large
  * inherent variance, mirroring AMT's long-tail quality distribution.
  *
  * @param participationSkew >0 skews which workers answer tasks (Zipf-ish
  *                          weights), producing the long-tail participation
  *                          observed on AMT
  */
final case class SimConfig(
    name: String,
    numRows: Int,
    columns: Seq[SimColumn],
    numWorkers: Int,
    answersPerTask: Int,
    seed: Long = 42L,
    spammerFrac: Double = 0.15,
    alphaSd: Double = 0.35,
    rowEffectSd: Double = 0.5,
    participationSkew: Double = 0.8,
    eps: Double = 1.0,
    /** Global average task difficulty mu{alpha_i beta_j} of §6.5.1 Fig. 9. */
    difficultyScale: Double = 1.0,
) {
  require(numWorkers >= answersPerTask, "need at least answersPerTask workers")
}

/** Deterministic crowd simulator: ground truth, worker pool, and answers are
  * pure functions of (config, ids), so the static dataset and the online
  * assignment replay produce identical answers for identical (worker, cell)
  * pairs.
  */
final class CrowdSim(val cfg: SimConfig) extends Serializable {

  private def rng(parts: Any*): Random =
    new Random(cfg.seed ^ MurmurHash3.orderedHash(parts.map(_.toString)).toLong << 17)

  val columnSpecs: Seq[ColumnSpec] =
    cfg.columns.zipWithIndex.map { case (c, j) => ColumnSpec(j, c.name, c.numLabels) }

  /** Inherent worker variance phi_u: lognormal "good" pool with a spammer
    * tail. Variances are in units of (column scale / 4)^2 — see answerFor.
    */
  val workerPhi: Map[Int, Double] = {
    (0 until cfg.numWorkers).map { u =>
      val r = rng("phi", u)
      val spammer = r.nextDouble() < cfg.spammerFrac
      val phi =
        if (spammer) math.exp(1.2 + 0.5 * r.nextGaussian())
        else math.exp(-1.1 + 0.7 * r.nextGaussian())
      u -> phi
    }.toMap
  }

  /** Row difficulty alpha_i (lognormal, median 1). */
  val rowAlpha: Map[Int, Double] =
    (0 until cfg.numRows).map(i => i -> math.exp(cfg.alphaSd * rng("alpha", i).nextGaussian())).toMap

  /** Ground truth of a cell (label index or raw continuous value). */
  def truthOf(i: Int, j: Int): Double = {
    val c = cfg.columns(j)
    val r = rng("truth", i, j)
    if (c.isCategorical) r.nextInt(c.numLabels).toDouble
    else c.lo + r.nextDouble() * (c.hi - c.lo)
  }

  /** Per-(worker,row) recognition effect rho_{u,i} (lognormal, median 1). */
  def rowEffect(u: Int, i: Int): Double =
    math.exp(cfg.rowEffectSd * rng("rho", u, i).nextGaussian())

  /** Variance of worker u's answer on cell (i,j) in normalized units. */
  def answerVariance(u: Int, i: Int, j: Int): Double =
    cfg.difficultyScale * rowAlpha(i) * cfg.columns(j).beta * workerPhi(u) * rowEffect(u, i)

  /** The column's "unit scale": 1/4 of the domain width, so a worker with
    * phi=1 on a neutral cell has std ~ a quarter of the domain.
    */
  def colScale(j: Int): Double = {
    val c = cfg.columns(j)
    if (c.isCategorical) 1.0 else (c.hi - c.lo) / 4.0
  }

  /** Deterministic answer of worker u on cell (i,j), per the paper's model:
    * continuous ~ N(truth, variance * scale^2) clamped to the domain;
    * categorical correct w.p. erf(eps/sqrt(2*variance)), otherwise uniform
    * over the wrong labels.
    */
  def answerFor(u: Int, i: Int, j: Int): Double = {
    val c = cfg.columns(j)
    val r = rng("ans", u, i, j)
    val v = answerVariance(u, i, j)
    val t = truthOf(i, j)
    if (c.isCategorical) {
      val q = MathUtil.quality(cfg.eps, v)
      if (r.nextDouble() < q) t
      else {
        val wrong = r.nextInt(c.numLabels - 1)
        (if (wrong >= t.toInt) wrong + 1 else wrong).toDouble
      }
    } else {
      val raw = t + r.nextGaussian() * math.sqrt(v) * colScale(j)
      math.max(c.lo, math.min(c.hi, raw))
    }
  }

  /** Long-tail participation weights (worker 0 most active). */
  private val participationWeights: IndexedSeq[Double] =
    (0 until cfg.numWorkers).map(u => 1.0 / math.pow(u + 1.0, cfg.participationSkew))

  /** The workers assigned to cell (i,j) under AMT-style static assignment:
    * `answersPerTask` distinct workers sampled without replacement with
    * long-tail weights. All cells of a row share the draw seed per HIT slot,
    * mirroring the paper's HIT = one row of tasks.
    */
  def workersFor(i: Int): Seq[Int] = {
    val r = rng("assign", i)
    val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
    val w = participationWeights.toArray.clone()
    while (picked.size < cfg.answersPerTask) {
      val total = w.sum
      var x = r.nextDouble() * total
      var u = 0
      while (u < w.length - 1 && x > w(u)) { x -= w(u); u += 1 }
      picked += u
      w(u) = 0.0
    }
    picked.toSeq
  }

  /** All answers under static AMT-style assignment (one HIT per row). */
  def allAnswers: Seq[Answer] =
    for {
      i <- 0 until cfg.numRows
      u <- workersFor(i)
      j <- cfg.columns.indices
    } yield Answer(u, i, j, answerFor(u, i, j))

  /** All ground-truth cells. */
  def allTruth: Seq[TruthCell] =
    for { i <- 0 until cfg.numRows; j <- cfg.columns.indices }
      yield TruthCell(i, j, truthOf(i, j))

  /** Materialize the static dataset as DataFrames. */
  def dataset(spark: SparkSession): CrowdDataset =
    CrowdDataset(cfg.name, Model.answersDf(spark, allAnswers), columnSpecs,
                 Model.truthDf(spark, allTruth))

  /** Worker arrival sequence for online assignment: workers keep returning
    * in a shuffled round-robin order (each worker appears once per round).
    */
  def arrivalSequence(rounds: Int): Seq[Int] = {
    val r = rng("arrivals")
    (0 until rounds).flatMap(_ => r.shuffle((0 until cfg.numWorkers).toList))
  }
}

object CrowdSim {

  /** Noise injection of §6.5.2: alter a fraction `gamma` of answers — random
    * label for categorical, +N(0,1) in z-score space for continuous —
    * implemented as a lazy DataFrame transform (no Spark job) so it composes
    * with any dataset.
    *
    * @param stats per-column (mean, std) of `ds`'s continuous answers
    *              ([[AnswerTable.stats]]); the std scales the noise
    */
  def addNoise(ds: CrowdDataset, stats: Map[Int, (Double, Double)], gamma: Double,
               seed: Long): CrowdDataset = {
    val labelCount = ds.labelCount
    val noisyUdf = udf { (c: Int, v: Double, r1: Double, r2: Double) =>
      val l = labelCount.getOrElse(c, 0)
      if (l > 0) math.floor(r1 * l).min(l - 1).toDouble
      else {
        val (_, sd) = stats.getOrElse(c, (0.0, 1.0))
        // Box–Muller from the two uniforms — keeps the transform deterministic
        // in (seed) without a per-row RNG object.
        val g = math.sqrt(-2.0 * math.log(math.max(r1, 1e-12))) * math.cos(2 * math.Pi * r2)
        v + g * sd
      }
    }
    val noisy = ds.answers
      .withColumn("r0", rand(seed))
      .withColumn("r1", rand(seed + 1))
      .withColumn("r2", rand(seed + 2))
      .withColumn("value",
        when(col("r0") < gamma, noisyUdf(col("col"), col("value"), col("r1"), col("r2")))
          .otherwise(col("value")))
      .select("worker", "row", "col", "value")
    ds.copy(name = s"${ds.name}-noise$gamma", answers = noisy)
  }
}
