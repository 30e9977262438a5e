package repro.core

import repro.CrowdSpec
import repro.baselines.VoteMedian
import repro.core.MathUtil.argmax
import repro.crowd.CrowdSim
import repro.experiments.Experiments
import scala.collection.mutable

/** The online session against the definitions it implements, in whole
  * sessions on the Restaurant surrogate of `Experiments.onlineConfig`: at
  * every pick, the snapshot is the Eq. 3/4 posterior of the session's log
  * under the last refresh's parameters ([[TCrowdOracle.eStep]]), the open
  * cells and a worker's row errors (§5.2) follow from the log, and the pick
  * is the argmax of the strategy's score computed afresh; the memoized
  * gains equal fresh ones, and the correlation model the estimate from the
  * session's snapshot.
  */
class AssignmentKernelSpec extends CrowdSpec {

  private val runCfg = SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = 0.5,
    tcrowd = TCrowdConfig(maxIters = 6, gdSteps = 3))
  private val settings = for (rows <- Seq(12, 48); seed <- Seq(11L, 17L)) yield (rows, seed)

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(a))

  /** Delegates to `inner` and, before each of its picks for worker u, checks
    * the session state (`st.log`, the snapshot, the open cells) against
    * their definitions:
    *   (a) every cell's snapshot posterior is, within 1e-9, the E-step of
    *       paper Eq. 3/4 over the cell's answers in the log, at the
    *       parameters of the last refresh (1 for a worker, row or column it
    *       does not cover) and with its continuous stats: a refresh copies
    *       that E-step and each later answer adds its term (§5.1);
    *   (b) u's open cells are every cell, rows first and then `columns`,
    *       less the cells u answered in the log;
    *   (c) u's errors on each row are §5.2's, from u's answers in the log
    *       and the snapshot's reads: 0/1 against the argmax label, or the
    *       z-normalized answer less the posterior mean;
    *   (d) the pick is the first open cell whose score, computed afresh,
    *       is greatest under `java.lang.Double.compare`.
    */
  private final class Checked(inner: AssignStrategy) extends AssignStrategy {
    def name: String = inner.name
    override def needsSnapshot: Boolean = inner.needsSnapshot
    override def needsCorrelation: Boolean = inner.needsCorrelation

    val mismatches = mutable.Buffer.empty[String]
    var picks = 0
    /** Picks whose chosen cell was scored with the §5.2 prediction. */
    var predictedPicks = 0

    private def score(st: AssignState, u: Int, i: Int, j: Int): Double = {
      val s = st.snapshot
      name match {
        case "Entropy"     => InfoGain.uniformEntropy(s.isCategorical(j), s.catOf(i, j), s.contOf(i, j)._2)
        case "Inherent IG" => Assignment.inherentGain(s, s.workerVariance(u), i, j)
        case "Struct IG"   => AssignmentReference.structureAwareGain(st, u, i, j)
      }
    }

    /** (a): the cells whose snapshot posterior is not the E-step of the log. */
    private def posteriorGaps(st: AssignState): Seq[String] = {
      val snap = st.snapshot
      val (r, t) = (snap.res, snap.res.table)
      def ln(ids: Array[Int], v: Array[Double]) = ids.indices.map(x => ids(x) -> math.log(v(x))).toMap.withDefaultValue(0.0)
      val post = TCrowdOracle.eStep(snap.columns, TCrowdOracle.normalized(t.stats, st.log.toSeq),
        TCrowdOracle.Params(ln(t.workerIds, r.phi), ln(t.rowIds, r.alpha), ln(t.colIds, r.beta)))
      for {
        i <- 0 until snap.numRows
        c <- snap.columns
        cell = (i, c.col)
        (got, want) = if (c.isCategorical)
          (snap.catOf(i, c.col).toSeq, post.cat.get(cell).fold(Seq.fill(c.numLabels)(1.0 / c.numLabels))(_.toSeq))
        else {
          val ((mu, v), (wMu, wV)) = (snap.contOf(i, c.col), post.cont.getOrElse(cell, (0.0, Model.PriorVar)))
          (Seq(mu, v), Seq(wMu, wV))
        }
        if got.length != want.length || !got.lazyZip(want).forall(close)
      } yield s"cell $cell: snapshot $got, Eq. 3/4 $want"
    }

    def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
      picks += 1
      val at = s"pick $picks of worker $u"
      val snap = st.snapshot
      mismatches ++= posteriorGaps(st).map(g => s"$at: $g")
      val mine = st.log.toSeq.filter(_.worker == u)
      val done = mine.map(a => (a.row, a.col)).toSet
      val open = for (i <- 0 until snap.numRows; c <- snap.columns if !done((i, c.col))) yield (i, c.col)
      if (st.availableCells(u) != open) mismatches += s"$at: open cells ${st.availableCells(u)}, defined $open"
      for (i <- 0 until snap.numRows) {
        val want = mine.filter(_.row == i).map { a =>
          a.col -> (if (snap.isCategorical(a.col)) { if (argmax(snap.catOf(i, a.col)) == a.value.toInt) 0.0 else 1.0 }
                    else Model.normalize(snap.res.table.stats, a.col, a.value) - snap.contOf(i, a.col)._1)
        }
        if (st.workerErrorsOnRow(u, i) != want) mismatches += s"$at: errors on row $i ${st.workerErrorsOnRow(u, i)}, defined $want"
      }
      val scores = open.map { case (i, j) => score(st, u, i, j) }
      val best = scores.maxOption(Ordering.Double.TotalOrdering)
      val first = best.fold(-1)(b => scores.indexWhere(java.lang.Double.compare(_, b) == 0))
      val got = inner.pick(st, u)
      if (got != open.lift(first)) mismatches += s"$at: $got, first best cell ${open.lift(first)} of score $best"
      for ((i, j) <- got) {
        val obs = st.workerErrorsOnRow(u, i)
        if (obs.nonEmpty && st.corr.exists(_.predict(j, obs).nonEmpty)) predictedPicks += 1
      }
      got
    }
  }

  for (make <- Seq[() => AssignStrategy](() => new EntropyStrategy, () => new InherentGainStrategy,
                                         () => new StructGainStrategy)) {
    val name = make().name
    test(s"$name: every pick is the first best open cell of a snapshot that is the Eq. 3/4 posterior of the log") {
      for ((rows, seed) <- settings) {
        val checked = new Checked(make())
        val pts = Assignment.simulate(new CrowdSim(Experiments.onlineConfig(rows, seed)), spark, checked, runCfg)
        assert(pts.last.avgAnswersPerTask >= 2.0)
        assert(checked.picks == rows * 5, s"rows=$rows seed=$seed")
        assert(checked.mismatches.isEmpty, s"rows=$rows seed=$seed: ${checked.mismatches.take(5)}")
        if (name == "Struct IG")
          assert(checked.predictedPicks > 0, s"rows=$rows seed=$seed: no pick ran the §5.2 prediction")
      }
    }
  }

  /** Delegates to `inner` and, before and after each of its picks, compares
    * every memoized gain of the picking worker whose stamp is current with a
    * fresh [[Assignment.inherentGain]], bit for bit. At the first pick after
    * a refresh it compares the session's correlation model, moment by moment,
    * with [[Correlation.estimate]] of the snapshot's result.
    */
  private final class MemoChecked(inner: AssignStrategy) extends AssignStrategy {
    def name: String = inner.name
    override def needsSnapshot: Boolean = inner.needsSnapshot
    override def needsCorrelation: Boolean = inner.needsCorrelation

    val mismatches = mutable.Buffer.empty[String]
    var compared, models = 0
    private var picks = 0
    private var lastCorr: Option[CorrelationModel] = None

    private def check(st: AssignState, u: Int, when: String): Unit = {
      val snap = st.snapshot
      val phi = snap.workerVariance(u)
      for (((i, j), g) <- st.memoizedGains(u)) {
        val want = Assignment.inherentGain(snap, phi, i, j)
        compared += 1
        if (java.lang.Double.doubleToLongBits(g) != java.lang.Double.doubleToLongBits(want))
          mismatches += s"$when pick $picks of worker $u: cell ($i, $j) memo $g, fresh $want"
      }
    }

    def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
      picks += 1
      if (st.corr.exists(c => !lastCorr.exists(_ eq c))) {
        val want = CorrelationSpec.momentsOf(Correlation.estimate(st.snapshot.res))
        models += 1
        if (CorrelationSpec.momentsOf(st.corr.get) != want) mismatches += s"pick $picks: correlation model differs from its estimate"
        lastCorr = st.corr
      }
      check(st, u, "before")
      val got = inner.pick(st, u)
      check(st, u, "after")
      got
    }
  }

  for (make <- Seq[() => AssignStrategy](() => new InherentGainStrategy, () => new StructGainStrategy)) {
    val name = make().name
    test(s"$name: every memoized gain equals a fresh inherent gain at every pick") {
      for ((rows, seed) <- settings) {
        val checked = new MemoChecked(make())
        Assignment.simulate(new CrowdSim(Experiments.onlineConfig(rows, seed)), spark, checked, runCfg)
        assert(checked.compared > rows * 5, s"rows=$rows seed=$seed")
        assert(checked.mismatches.isEmpty, s"rows=$rows seed=$seed: ${checked.mismatches.take(5)}")
        if (name == "Struct IG")
          assert(checked.models == 2, s"rows=$rows seed=$seed: correlation models checked")
      }
    }
  }

  /** SimPoints of the self-contained strategies recorded with the map-based
    * open-cell iterator; equal points mean the same cells in the same order.
    */
  private val recorded: Map[(Int, Long, String), Seq[SimPoint]] = Map(
    (12, 11L, "Random") -> Seq(SimPoint(1.0, 0.16666666666666666, 0.9070835459016702), SimPoint(1.5, 0.19444444444444445, 0.608974658592685), SimPoint(2.0, 0.08333333333333333, 0.5946377577359708)),
    (12, 11L, "CDAS") -> Seq(SimPoint(1.0, 0.16666666666666666, 0.9683588866853985), SimPoint(1.5, 0.16666666666666666, 0.8927667705038871), SimPoint(2.0, 0.1388888888888889, 0.729252213381594)),
    (12, 11L, "AskIt") -> Seq(SimPoint(1.0, 0.16666666666666666, 0.9683588866853985), SimPoint(1.5, 0.16666666666666666, 0.7117163596662632), SimPoint(2.0, 0.16666666666666666, 0.33489728148244746)),
    (12, 17L, "Random") -> Seq(SimPoint(1.0, 0.19444444444444445, 0.7233691235570822), SimPoint(1.5, 0.19444444444444445, 0.6624915927353758), SimPoint(2.0, 0.1388888888888889, 0.5534365346657407)),
    (12, 17L, "CDAS") -> Seq(SimPoint(1.0, 0.19444444444444445, 0.778079510353583), SimPoint(1.5, 0.1111111111111111, 0.5934613402820106), SimPoint(2.0, 0.05555555555555555, 0.5679390981809174)),
    (12, 17L, "AskIt") -> Seq(SimPoint(1.0, 0.19444444444444445, 0.778079510353583), SimPoint(1.5, 0.19444444444444445, 0.501891613004134), SimPoint(2.0, 0.19444444444444445, 0.33137245796428294)),
    (48, 11L, "Random") -> Seq(SimPoint(1.0, 0.2013888888888889, 0.5292939636151013), SimPoint(1.5, 0.1736111111111111, 0.4732000258347352), SimPoint(2.0, 0.125, 0.46111120408292466)),
    (48, 11L, "CDAS") -> Seq(SimPoint(1.0, 0.2013888888888889, 0.5614168394099672), SimPoint(1.5, 0.2222222222222222, 0.4415381019325636), SimPoint(2.0, 0.2222222222222222, 0.38984045595097483)),
    (48, 11L, "AskIt") -> Seq(SimPoint(1.0, 0.2013888888888889, 0.5614168394099672), SimPoint(1.5, 0.2013888888888889, 0.37964217998209154), SimPoint(2.0, 0.2013888888888889, 0.31562719167044084)),
    (48, 17L, "Random") -> Seq(SimPoint(1.0, 0.19444444444444445, 0.5535155235988375), SimPoint(1.5, 0.1527777777777778, 0.5145319044456875), SimPoint(2.0, 0.11805555555555555, 0.45797571010560545)),
    (48, 17L, "CDAS") -> Seq(SimPoint(1.0, 0.19444444444444445, 0.6021938037427799), SimPoint(1.5, 0.2152777777777778, 0.5312824947885225), SimPoint(2.0, 0.1597222222222222, 0.5177690340101947)),
    (48, 17L, "AskIt") -> Seq(SimPoint(1.0, 0.19444444444444445, 0.6021938037427799), SimPoint(1.5, 0.19444444444444445, 0.42383693237544473), SimPoint(2.0, 0.19444444444444445, 0.3285614747382933)),
  )

  test("Random, CDAS and AskIt see the open cells in the recorded order") {
    for ((rows, seed) <- settings) {
      val cfg = Experiments.onlineConfig(rows, seed)
      val catCols = cfg.columns.zipWithIndex.filter(_._1.isCategorical).map(_._2).toSet
      val sessions: Seq[(AssignStrategy, Option[InferenceMethod])] = Seq(
        (new RandomStrategy(7L), None),
        (new CdasStrategy(catCols), Some(VoteMedian)),
        (new AskItStrategy(catCols), Some(VoteMedian)))
      for ((s, inf) <- sessions) {
        val pts = Assignment.simulate(new CrowdSim(cfg), spark, s, runCfg.copy(inference = inf))
        assert(pts == recorded((rows, seed, s.name)), s"rows=$rows seed=$seed ${s.name}")
      }
    }
  }
}
