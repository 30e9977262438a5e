package repro.core

import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig}

class AssignmentSpec extends CrowdSpec {

  private val columns = Seq(ColumnSpec(0, "c", 3), ColumnSpec(1, "x", 0))

  private def mkResult(certainCat: Boolean = false): TCrowdResult = TCrowdResult(
    estimatesLocal = Seq.empty,
    contPosterior = Map((0, 1) -> (0.0, 1.0), (1, 1) -> (0.0, 0.001)),
    catPosterior = Map(
      (0, 0) -> (if (certainCat) Array(0.999, 0.0005, 0.0005)
                 else Array(0.34, 0.33, 0.33)),
      (1, 0) -> Array(0.998, 0.001, 0.001)),
    phi = Map(0 -> 0.3, 1 -> 5.0),
    alpha = Map(0 -> 1.0, 1 -> 1.0),
    beta = Map(0 -> 1.0, 1 -> 1.0),
    contStats = Map(1 -> (0.0, 1.0)),
    iterations = 1, converged = true)

  private def mkState(res: TCrowdResult = mkResult()): AssignState =
    new AssignState(new Snapshot(res, 2, columns))

  /** The gains of one pick of worker u, as the IG strategies score a cell. */
  private def inherentGain(st: AssignState, u: Int, i: Int, j: Int): Double =
    Assignment.inherentGain(st.snapshot, st.snapshot.workerVariance(u), i, j)
  private def structureAwareGain(st: AssignState, u: Int, i: Int, j: Int): Double =
    Assignment.structureAwareGain(st, st.snapshot.workerVariance(u), st.workerErrorsOnRow(u, i), i, j)

  // ----------------------------------------------------------------- Snapshot

  test("Snapshot falls back to prior for unseen cells") {
    val snap = mkState().snapshot
    assert(snap.contOf(9, 1) == (0.0, 4.0))
    assert(snap.catOf(9, 0).toSeq == Seq(1.0 / 3, 1.0 / 3, 1.0 / 3))
  }

  test("Snapshot reads of a column outside the schema are rejected, naming the column") {
    val st = mkState()
    val snap = st.snapshot
    val reads = Seq[(String, () => Any)](
      "catOf" -> (() => snap.catOf(0, 99)), "contOf" -> (() => snap.contOf(0, 99)),
      "isCategorical" -> (() => snap.isCategorical(99)),
      "answerVariance" -> (() => snap.answerVariance(1.0, 0, 99)),
      "inherentGain" -> (() => inherentGain(st, 0, 0, 99)),
      "catOf on a row outside the table" -> (() => snap.catOf(9, 99)))
    for ((name, read) <- reads) {
      val e = intercept[IllegalArgumentException](read())
      assert(e.getMessage == "column 99 is not in the schema", s"$name: ${e.getMessage}")
    }
    // a row outside the table keeps its prior
    assert(snap.answerVariance(2.0, 9, 1) == 2.0)
  }

  test("Snapshot.applyAnswer tightens a continuous posterior") {
    val snap = mkState().snapshot
    val before = snap.contOf(0, 1)._2
    snap.applyAnswer(0, 0, 1, 0.5)
    val after = snap.contOf(0, 1)._2
    assert(after < before)
  }

  test("Snapshot.applyAnswer shifts a categorical posterior toward the answer") {
    val snap = mkState().snapshot
    val before = snap.catOf(0, 0)(2)
    snap.applyAnswer(0, 0, 0, 2.0)
    val after = snap.catOf(0, 0)(2)
    assert(after > before)
    assert(math.abs(snap.catOf(0, 0).sum - 1.0) < 1e-9)
  }

  test("Snapshot.estimateOf returns argmax / posterior mean") {
    val snap = mkState().snapshot
    assert(snap.estimateOf(1, 0) == 0.0)
    assert(snap.estimateOf(0, 1) == 0.0)
  }

  test("Snapshot.refresh replaces the posteriors") {
    val snap = mkState().snapshot
    snap.applyAnswer(0, 0, 1, 3.0)
    snap.refresh(mkResult())
    assert(snap.contOf(0, 1) == (0.0, 1.0))
  }

  test("a categorical answer that is not a label is rejected online, naming the cell") {
    for (bad <- Seq(1.5, -1.0, 3.0)) {
      val want = s"requirement failed: answer $bad on cell (0, 0) is not a label in [0, 3)"
      val st = mkState()
      val recorded = intercept[IllegalArgumentException](st.record(Answer(3, 0, 0, bad)))
      assert(recorded.getMessage == want)
      assert(st.log.isEmpty && !st.isAnswered(3, 0, 0))
      val before = st.snapshot.catOf(0, 0)
      val applied = intercept[IllegalArgumentException](st.snapshot.applyAnswer(3, 0, 0, bad))
      assert(applied.getMessage == want)
      assert(st.snapshot.catOf(0, 0) eq before)
    }
  }

  test("a continuous answer that is not finite is rejected by record, naming the cell") {
    val e = intercept[IllegalArgumentException](mkState().record(Answer(3, 0, 1, Double.NaN)))
    assert(e.getMessage == "requirement failed: answer NaN on cell (0, 1) is not a finite number")
  }

  test("Snapshot.stamp changes on the answered cell and on every cell at a refresh") {
    val snap = mkState().snapshot
    val k = snap.index(0, 1)
    val stamps = (0 until 4).map(snap.stamp)
    snap.applyAnswer(0, 0, 1, 0.5)
    assert((0 until 4).filter(c => snap.stamp(c) != stamps(c)) == Seq(k))
    val answered = (0 until 4).map(snap.stamp)
    snap.refresh(mkResult())
    assert((0 until 4).forall(c => snap.stamp(c) != answered(c)))
  }

  test("the gain memo holds only gains a fresh computation gives, and drops a cell when its stamp changes") {
    val st = mkState()
    val snap = st.snapshot
    val strategy = new InherentGainStrategy
    def fresh(u: Int) = (for (i <- 0 until 2; c <- columns) yield (i, c.col) -> inherentGain(st, u, i, c.col)).toMap
    def memoized(u: Int) = st.memoizedGains(u).map(_._1).toSet
    def check(u: Int): Unit = {
      val want = fresh(u)
      val picked = strategy.pick(st, u).get
      assert(picked == want.maxBy(_._2)._1)
      assert(memoized(u).contains(picked))
      // continuous gains are never skipped
      assert(Set((0, 1), (1, 1)).subsetOf(memoized(u)))
      assert(st.memoizedGains(u).forall { case (c, g) => g == want(c) })
    }
    assert(st.memoizedGains(0).isEmpty)
    check(0)
    val before = memoized(0)
    snap.applyAnswer(1, 0, 1, 2.0)
    assert(memoized(0) == before - ((0, 1)))
    check(0)
    snap.refresh(mkResult(certainCat = true))
    assert(st.memoizedGains(0).isEmpty)
    check(0)
    assert(st.memoizedGains(1).isEmpty)
  }

  // -------------------------------------------------------------- AssignState

  test("record tracks answered cells per worker and per row") {
    val st = mkState()
    st.record(Answer(3, 0, 0, 1.0))
    assert(st.isAnswered(3, 0, 0))
    assert(!st.isAnswered(3, 0, 1))
    assert(!st.isAnswered(4, 0, 0))
    assert(st.availableCells(3).toSet == Set((0, 1), (1, 0), (1, 1)))
  }

  test("workerErrorsOnRow compares answers to the snapshot estimates") {
    val st = mkState()
    st.record(Answer(3, 1, 0, 0.0)) // matches argmax 0 -> error 0
    st.record(Answer(3, 1, 1, 2.0)) // cont estimate 0.0 -> error 2.0
    val errs = st.workerErrorsOnRow(3, 1).toMap
    assert(errs(0) == 0.0)
    assert(math.abs(errs(1) - 2.0) < 1e-9)
  }

  // --------------------------------------------------------------- strategies

  test("Random only returns unanswered cells and exhausts to None") {
    val st = mkState()
    val s = new RandomStrategy(1)
    val picked = scala.collection.mutable.Set.empty[(Int, Int)]
    for (_ <- 1 to 4) {
      val c = s.pick(st, 5).get
      assert(!picked.contains(c))
      picked += c
      st.record(Answer(5, c._1, c._2, 0.0))
    }
    assert(s.pick(st, 5).isEmpty)
    assert(picked.size == 4)
  }

  test("Looping cycles cells in order") {
    val st = mkState()
    val s = new LoopingStrategy
    assert(s.pick(st, 5).contains((0, 0)))
    st.record(Answer(5, 0, 0, 0.0))
    assert(s.pick(st, 5).contains((0, 1)))
    st.record(Answer(5, 0, 1, 0.0))
    assert(s.pick(st, 5).contains((1, 0)))
  }

  test("Looping skips cells the worker already answered") {
    val st = mkState()
    st.record(Answer(5, 0, 0, 0.0))
    val s = new LoopingStrategy
    assert(s.pick(st, 5).contains((0, 1)))
  }

  test("Entropy picks the highest-uncertainty cell (continuous bias included)") {
    val st = mkState()
    // entropies: (0,0) cat ~ln3=1.10; (1,0) cat ~0; (0,1) cont H_d(1)=1.42; (1,1) cont negative
    assert(new EntropyStrategy().pick(st, 0).contains((0, 1)))
  }

  test("InherentGain prefers the uncertain categorical cell for a good worker") {
    val st = mkState()
    val pick = new InherentGainStrategy().pick(st, 0)
    // gains: uncertain cat (0,0) vs cont (0,1): both informative; must be one
    // of the two uncertain cells, never the near-certain ones
    assert(Set[(Int, Int)]((0, 0), (0, 1)).contains(pick.get))
  }

  test("inherentGain is near zero on near-certain cells") {
    val st = mkState()
    assert(inherentGain(st, 0, 1, 0) < inherentGain(st, 0, 0, 0))
    assert(inherentGain(st, 0, 1, 1) < inherentGain(st, 0, 0, 1))
  }

  test("inherentGain is larger for the better worker") {
    val st = mkState()
    assert(inherentGain(st, 0, 0, 0) > inherentGain(st, 1, 0, 0))
  }

  test("structureAwareGain falls back to inherent gain without a model") {
    val st = mkState()
    val a = structureAwareGain(st, 0, 0, 0)
    val b = inherentGain(st, 0, 0, 0)
    assert(math.abs(a - b) < 1e-12)
  }

  test("structureAwareGain penalizes a worker who already erred on the row") {
    val st = mkState()
    // correlation model: erring on attr 0 implies erring on attr 0' (self pair
    // unused); build a model where e_0 observed=1 predicts high error on col 0
    val model = CorrelationModel(
      isCat = Map(0 -> true, 1 -> false),
      marginal = Map(0 -> CondDist(0.3, 0.21, 100), 1 -> CondDist(0.0, 1.0, 100)),
      weight = Map((0, 1) -> 0.8, (1, 0) -> 0.8),
      condOnCat = Map.empty,
      contPair = Map((1, 1) -> (0.0, 0.0, 1.0, 1.0, 0.8)),
    )
    // observing a continuous error of +2 on col 1 predicts cat error on col 0
    // via Bayes — needs condOnCat entries for (1, 0, e0):
    val model2 = model.copy(condOnCat = Map(
      (1, 0, 1) -> CondDist(1.5, 0.5, 50), // e_1 | e_0 = 1 centered high
      (1, 0, 0) -> CondDist(0.0, 0.5, 50),
    ))
    st.corr = Some(model2)
    st.record(Answer(7, 0, 1, 2.0)) // big continuous error on row 0
    val gStruct = structureAwareGain(st, 7, 0, 0)
    st.corr = None
    val gInherent = inherentGain(st, 7, 0, 0)
    info(f"struct=$gStruct%.4f inherent=$gInherent%.4f")
    // the worker now looks worse on this row, so expected gain drops
    assert(gStruct < gInherent)
  }

  // ------------------------------------------------------ self-contained strategies

  test("CDAS avoids terminated (confident) cells") {
    val st = mkState()
    val s = new CdasStrategy(catCols = Set(0), seed = 3)
    // make (0,0) terminated: 5 identical votes
    for (u <- 10 to 14) s.observe(u, 0, 0, 1.0)
    // worker 20 has answered everything except (0,0) and (1,1)
    st.record(Answer(20, 0, 1, 0.0))
    st.record(Answer(20, 1, 0, 0.0))
    val picks = (1 to 10).map(_ => s.pick(st, 20).get).toSet
    assert(!picks.contains((0, 0)))
    assert(picks.contains((1, 1)))
  }

  test("CDAS falls back to terminated cells when nothing else remains") {
    val st = mkState()
    val s = new CdasStrategy(catCols = Set(0), seed = 4)
    for (u <- 10 to 14) { s.observe(u, 0, 0, 1.0) }
    st.record(Answer(20, 0, 1, 0.0)); st.record(Answer(20, 1, 0, 0.0))
    st.record(Answer(20, 1, 1, 0.0))
    assert(s.pick(st, 20).contains((0, 0)))
  }

  test("AskIt prefers unanswered continuous cells (datatype bias)") {
    val st = mkState()
    val s = new AskItStrategy(catCols = Set(0))
    // categorical cells have votes, continuous none -> continuous Inf urgency
    s.observe(1, 0, 0, 1.0); s.observe(2, 0, 0, 2.0)
    s.observe(1, 1, 0, 0.0); s.observe(2, 1, 0, 0.0)
    val p = s.pick(st, 9).get
    assert(p._2 == 1) // a continuous column
  }

  test("AskIt picks the higher-entropy categorical cell when forced") {
    val st = mkState()
    val s = new AskItStrategy(catCols = Set(0))
    s.observe(1, 0, 0, 1.0); s.observe(2, 0, 0, 2.0) // split votes: high entropy
    s.observe(1, 1, 0, 0.0); s.observe(2, 1, 0, 0.0) // unanimous: zero entropy
    for (i <- 0 to 1) { s.observe(1, i, 1, 5.0); st.record(Answer(9, i, 1, 5.0)) }
    assert(s.pick(st, 9).contains((0, 0)))
  }

  // ------------------------------------------------------------- simulation

  test("simulate produces increasing answers-per-task checkpoints and sane metrics") {
    val sim = new CrowdSim(SimConfig("simrun", 10,
      Seq(SimColumn("c", numLabels = 3), SimColumn("x", 0, 0, 10)),
      numWorkers = 6, answersPerTask = 3, seed = 21L))
    val pts = Assignment.simulate(sim, spark, new RandomStrategy(1),
      SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = 0.5,
        tcrowd = TCrowdConfig(maxIters = 3, gdSteps = 2)))
    assert(pts.size >= 2)
    assert(pts.map(_.avgAnswersPerTask) == pts.map(_.avgAnswersPerTask).sorted)
    assert(pts.head.avgAnswersPerTask >= 1.0)
    pts.foreach { p =>
      assert(p.errorRate >= 0 && p.errorRate <= 1)
      assert(p.mnad >= 0)
    }
  }

  test("simulate with an IG strategy runs end to end and improves over seeding") {
    val sim = new CrowdSim(SimConfig("simrun2", 10,
      Seq(SimColumn("c", numLabels = 3), SimColumn("x", 0, 0, 10)),
      numWorkers = 6, answersPerTask = 3, seed = 22L))
    val pts = Assignment.simulate(sim, spark, new InherentGainStrategy,
      SimRunConfig(maxAvgAnswers = 2.5, checkpointEvery = 0.75,
        tcrowd = TCrowdConfig(maxIters = 3, gdSteps = 2)))
    assert(pts.last.avgAnswersPerTask > 2.0)
    assert(pts.last.mnad <= pts.head.mnad + 0.1)
  }
}
