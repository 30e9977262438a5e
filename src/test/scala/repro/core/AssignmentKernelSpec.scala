package repro.core

import repro.CrowdSpec
import repro.baselines.VoteMedian
import repro.core.AssignmentReference.{MapSnapshot, MapState}
import repro.crowd.CrowdSim
import repro.experiments.Experiments
import scala.collection.mutable

/** The dense pick ([[AssignState.bestOpenCell]] over the array-backed
  * [[Snapshot]]) against the map-based scoring it replaced
  * ([[AssignmentReference]]), in whole online sessions on the Restaurant
  * surrogate of `Experiments.onlineConfig`. The reference scores a
  * categorical cell by Eq. 6 as an expectation and the pick by its closed
  * form, so the two gains agree to rounding (1e-12) and the cells exactly.
  */
class AssignmentKernelSpec extends CrowdSpec {

  private val runCfg = SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = 0.5,
    tcrowd = TCrowdConfig(maxIters = 6, gdSteps = 3))
  private val settings = for (rows <- Seq(12, 48); seed <- Seq(11L, 17L)) yield (rows, seed)

  /** Delegates to `inner` and, before each of its picks, scores the same
    * session state with the reference: a map-based mirror of the snapshot
    * (the same refreshes, the same answers applied) and of the answered
    * cells, read from the session's log.
    */
  private final class Checked(inner: AssignStrategy) extends AssignStrategy {
    def name: String = inner.name
    override def needsSnapshot: Boolean = inner.needsSnapshot
    override def needsCorrelation: Boolean = inner.needsCorrelation
    override def observe(u: Int, i: Int, j: Int, value: Double): Unit = inner.observe(u, i, j, value)

    val mismatches = mutable.Buffer.empty[String]
    var picks = 0
    /** The largest gap between a picked cell's gain and the reference's. */
    var largestGap = 0.0
    /** Picks whose chosen cell the reference scored with the §5.2 prediction. */
    var predictedPicks = 0
    private var ref: MapState = _
    private var seen = 0
    private var corr: CorrelationModel = _

    private def sync(st: AssignState): Unit = {
      if (ref == null) {
        val snap = st.snapshot
        ref = new MapState(snap.numRows, snap.columns,
          new MapSnapshot(snap.res, snap.columns.map(c => c.col -> c.numLabels).toMap))
        st.log.foreach(ref.record)
      } else {
        st.log.drop(seen).foreach { a =>
          ref.record(a)
          ref.snapshot.applyAnswer(a.worker, a.row, a.col, a.value)
        }
        if (st.snapshot.res ne ref.snapshot.res) ref.snapshot.refresh(st.snapshot.res)
      }
      seen = st.log.size
      if (st.corr.orNull ne corr) {
        corr = st.corr.orNull
        ref.corr = st.corr.map(CorrelationMaps(_))
      }
    }

    private def score(st: AssignState, u: Int, i: Int, j: Int): Double = {
      val s = st.snapshot
      name match {
        case "Entropy"     => InfoGain.uniformEntropy(s.isCategorical(j), s.catOf(i, j), s.contOf(i, j)._2)
        case "Inherent IG" => Assignment.inherentGain(s, s.workerVariance(u), i, j)
        case "Struct IG"   => AssignmentReference.structureAwareGain(st, u, i, j)
      }
    }

    def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
      sync(st)
      val want = AssignmentReference.pick(name, ref, u)
      val got = inner.pick(st, u)
      picks += 1
      (got, want) match {
        case (Some((i, j)), Some((cell, gain))) =>
          val g = score(st, u, i, j)
          val gap = math.abs(g - gain)
          largestGap = math.max(largestGap, gap)
          val same = if (name == "Entropy") g == gain else gap <= 1e-12
          if ((i, j) != cell || !same) mismatches += s"pick $picks of worker $u: ($i, $j) gain $g, reference $cell gain $gain"
          if (AssignmentReference.predicted(ref, u, i, j).nonEmpty) predictedPicks += 1
        case (None, None) =>
        case _ => mismatches += s"pick $picks of worker $u: $got, reference $want"
      }
      got
    }
  }

  for (make <- Seq[() => AssignStrategy](() => new EntropyStrategy, () => new InherentGainStrategy,
                                         () => new StructGainStrategy)) {
    val name = make().name
    test(s"$name: every pick and its gain equal the map-based reference") {
      var largestGap = 0.0
      for ((rows, seed) <- settings) {
        val checked = new Checked(make())
        val pts = Assignment.simulate(new CrowdSim(Experiments.onlineConfig(rows, seed)), spark, checked, runCfg)
        assert(pts.last.avgAnswersPerTask >= 2.0)
        assert(checked.picks == rows * 5, s"rows=$rows seed=$seed")
        assert(checked.mismatches.isEmpty, s"rows=$rows seed=$seed: ${checked.mismatches.take(5)}")
        if (name == "Struct IG")
          assert(checked.predictedPicks > 0, s"rows=$rows seed=$seed: no pick ran the §5.2 prediction")
        largestGap = math.max(largestGap, checked.largestGap)
      }
      info(s"largest gap between a picked gain and the reference's: $largestGap")
    }
  }

  /** Delegates to `inner` and, before and after each of its picks, compares
    * every memoized gain of the picking worker whose stamp is current with a
    * fresh [[Assignment.inherentGain]], bit for bit. At the first pick after
    * a refresh it compares the session's correlation model with
    * [[CorrelationReference]] on the same answers and result.
    */
  private final class MemoChecked(inner: AssignStrategy) extends AssignStrategy {
    def name: String = inner.name
    override def needsSnapshot: Boolean = inner.needsSnapshot
    override def needsCorrelation: Boolean = inner.needsCorrelation
    override def observe(u: Int, i: Int, j: Int, value: Double): Unit = inner.observe(u, i, j, value)

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
        val want = CorrelationReference.estimate(st.snapshot.res)
        models += 1
        if (CorrelationMaps(st.corr.get) != want) mismatches += s"pick $picks: correlation model differs from the reference"
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
