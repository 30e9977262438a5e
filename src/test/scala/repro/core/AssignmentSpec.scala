package repro.core

import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig}

class AssignmentSpec extends CrowdSpec {

  private val columns = Seq(ColumnSpec(0, "c", 3), ColumnSpec(1, "x", 0))

  /** Workers 0 and 1 answer every cell of the 2-row table. The continuous
    * answers are -1 and +1, whose stats are exactly (0, 1), so a raw answer
    * is its normalized value.
    */
  private val table = Model.answerTable(columns,
    for (u <- 0 to 1; i <- 0 to 1; c <- columns) yield Answer(u, i, c.col, if (c.isCategorical) 0.0 else 2.0 * u - 1))

  /** Alpha and beta are 1. */
  private def mkResult(certainCat: Boolean = false): TCrowdResult = ResultMaps.result(table,
    contPosterior = Map((0, 1) -> (0.0, 1.0), (1, 1) -> (0.0, 0.001)),
    catPosterior = Map(
      (0, 0) -> (if (certainCat) Array(0.999, 0.0005, 0.0005)
                 else Array(0.34, 0.33, 0.33)),
      (1, 0) -> Array(0.998, 0.001, 0.001)),
    phi = Map(0 -> 0.3, 1 -> 5.0))

  private def mkState(res: TCrowdResult = mkResult()): AssignState =
    new AssignState(new Snapshot(res, 2, columns))

  /** The gains of one pick of worker u, as the IG strategies score a cell. */
  private def inherentGain(st: AssignState, u: Int, i: Int, j: Int): Double =
    Assignment.inherentGain(st.snapshot, st.snapshot.workerVariance(u), i, j)
  private def structureAwareGain(st: AssignState, u: Int, i: Int, j: Int): Double =
    AssignmentReference.structureAwareGain(st, u, i, j)

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

  test("Snapshot.refresh ignores the rows and columns of a result outside its table") {
    // rows 0-3 and a column 7 outside the schema; the snapshot has rows 0-1
    val wide = columns :+ ColumnSpec(7, "z", 0)
    val t = Model.answerTable(wide, for (i <- 0 to 3; c <- wide) yield Answer(0, i, c.col, if (c.isCategorical) 1.0 else 0.0))
    val r = ResultMaps.result(t,
      contPosterior = (for (i <- 0 to 3; j <- Seq(1, 7)) yield (i, j) -> (i + 0.5, 0.25 * j)).toMap,
      catPosterior = (for (i <- 0 to 3) yield (i, 0) -> Array(0.1, 0.1 * i, 0.9 - 0.1 * i)).toMap,
      phi = Map(0 -> 0.5), alpha = Map(0 -> 2.0, 1 -> 0.5, 2 -> 3.0, 3 -> 4.0), beta = Map(0 -> 1.5, 1 -> 0.8, 7 -> 9.0))
    val st = mkState()
    val snap = st.snapshot
    snap.refresh(r)
    for (i <- 0 to 1) {
      assert(snap.contOf(i, 1) == (i + 0.5, 0.25))
      assert(snap.catOf(i, 0).toSeq == Seq(0.1, 0.1 * i, 0.9 - 0.1 * i))
    }
    assert(snap.answerVariance(snap.workerVariance(0), 0, 0) == 2.0 * 1.5 * 0.5)
    assert(snap.answerVariance(1.0, 1, 1) == 0.5 * 0.8)
    // rows 2 and 3 are outside the table: the prior, and no difficulty
    assert(snap.contOf(2, 1) == (0.0, Model.PriorVar))
    assert(snap.answerVariance(1.0, 3, 1) == 0.8)
    assert(intercept[IllegalArgumentException](snap.contOf(0, 7)).getMessage == "column 7 is not in the schema")
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
      // every open cell's gain is memoized
      assert(memoized(u) == want.keySet)
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

  test("record rejects an answer outside the table, naming the cell") {
    for ((i, j) <- Seq((5, 0), (0, 9))) {
      val st = mkState()
      val e = intercept[IllegalArgumentException](st.record(Answer(1, i, j, 0.0)))
      assert(e.getMessage.contains(s"cell ($i, $j)"), e.getMessage)
      assert(st.log.isEmpty)
    }
  }

  test("record rejects a second answer of one worker on one cell, as the answer table does") {
    val st = mkState()
    val first = Answer(1, 0, 1, 0.5)
    st.record(first)
    for (again <- Seq(first, first.copy(value = 2.0))) {
      val e = intercept[IllegalArgumentException](st.record(again))
      val table = intercept[IllegalArgumentException](Model.answerTable(columns, Seq(first, again)))
      assert(e.getMessage == "worker 1 answered cell (0, 1) twice" && e.getMessage == table.getMessage, e.getMessage)
    }
    // another worker on the cell is accepted
    st.record(Answer(2, 0, 1, 0.5))
    assert(st.log == Seq(first, Answer(2, 0, 1, 0.5)))
  }

  test("workerErrorsOnRow compares answers to the snapshot estimates") {
    assert(table.stats == Map(1 -> (0.0, 1.0)))
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
    // observing a continuous error of +2 on col 1 predicts a cat error on
    // col 0 via Bayes over e_1 | e_0 and the marginal of e_0, with W = 0.8
    def moments(n: Long, mean: Double, variance: Double): MathUtil.Moments = {
      val ms = new MathUtil.Moments
      ms.n = n; ms.meanX = mean; ms.cxx = variance * n
      ms
    }
    val pair = moments(100, 0.0, 1.0)
    pair.cyy = 100; pair.cxy = 80
    val model = new CorrelationModel(columns,
      marginal = Array(moments(100, 0.3, 0.21), moments(100, 0.0, 1.0)),
      pair = Array(null, pair, pair, null),
      // e_1 | e_0 = 0 at (1 * 2 + 0) * 2, and e_1 | e_0 = 1 centered high
      cond = Array(null, null, null, null, moments(50, 0.0, 0.5), moments(50, 1.5, 0.5), null, null))
    st.corr = Some(model)
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
    // worker 20 has answered everything except (0,0) and (1,1)
    st.record(Answer(20, 0, 1, 0.0))
    st.record(Answer(20, 1, 0, 0.0))
    // (0,0) is open at 2 identical votes, and the third terminates it
    for (u <- 10 to 11) st.record(Answer(u, 0, 0, 1.0))
    assert((1 to 20).map(_ => s.pick(st, 20).get).contains((0, 0)))
    st.record(Answer(12, 0, 0, 1.0))
    val picks = (1 to 10).map(_ => s.pick(st, 20).get).toSet
    assert(!picks.contains((0, 0)))
    assert(picks.contains((1, 1)))
  }

  test("CDAS terminates a continuous cell at 3 identical answers or 16 distinct ones") {
    // worker 20 has two open cells, the continuous (0, 1) and (1, 1): CDAS
    // picks (0, 1) only while it is not terminated
    def terminated(answers: Seq[Double]): Boolean = {
      val st = mkState()
      val s = new CdasStrategy(catCols = Set(0), seed = 6)
      for ((v, u) <- answers.zipWithIndex) st.record(Answer(u, 0, 1, v))
      st.record(Answer(20, 0, 0, 0.0)); st.record(Answer(20, 1, 0, 0.0))
      !(1 to 20).map(_ => s.pick(st, 20).get).contains((0, 1))
    }
    assert(!terminated(Seq(5.0, 5.0)))
    assert(terminated(Seq(5.0, 5.0, 5.0)))
    for (n <- 3 to 15) assert(!terminated((1 to n).map(_.toDouble)), s"$n distinct answers")
    assert(terminated((1 to 16).map(_.toDouble)))
  }

  test("CDAS falls back to terminated cells when nothing else remains") {
    val st = mkState()
    val s = new CdasStrategy(catCols = Set(0), seed = 4)
    for (u <- 10 to 14) st.record(Answer(u, 0, 0, 1.0))
    st.record(Answer(20, 0, 1, 0.0)); st.record(Answer(20, 1, 0, 0.0))
    st.record(Answer(20, 1, 1, 0.0))
    assert(s.pick(st, 20).contains((0, 0)))
  }

  test("AskIt prefers unanswered continuous cells (datatype bias)") {
    val st = mkState()
    val s = new AskItStrategy(catCols = Set(0))
    // categorical cells have votes, continuous none -> continuous Inf urgency
    st.record(Answer(1, 0, 0, 1.0)); st.record(Answer(2, 0, 0, 2.0))
    st.record(Answer(1, 1, 0, 0.0)); st.record(Answer(2, 1, 0, 0.0))
    val p = s.pick(st, 9).get
    assert(p._2 == 1) // a continuous column
  }

  test("AskIt picks the higher-entropy categorical cell when forced") {
    val st = mkState()
    val s = new AskItStrategy(catCols = Set(0))
    st.record(Answer(1, 0, 0, 1.0)); st.record(Answer(2, 0, 0, 2.0)) // split votes: high entropy
    st.record(Answer(1, 1, 0, 0.0)); st.record(Answer(2, 1, 0, 0.0)) // unanimous: zero entropy
    for (i <- 0 to 1) st.record(Answer(9, i, 1, 5.0))
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
