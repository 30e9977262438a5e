package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.metrics.Metrics
import scala.collection.immutable.ArraySeq
import scala.util.{Failure, Success, Try}

/** The primitive-loop [[AnswerTable]], [[MathUtil.softmax]] and
  * `Metrics.evaluate` against the code they replaced ([[IngestReference]]),
  * compared bit for bit on generated answer relations: unsorted answers,
  * sparse and out-of-order column ids, 2-40 labels, single-answer cells,
  * schema columns without answers, row gaps and bad answers.
  */
object IngestProps extends Properties("Ingest") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(1000)

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToLongBits)
  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  /** 1-6 columns with distinct ids from [0, 60) in random order, each categorical (2-40 labels) or continuous. */
  private val schema: Gen[Seq[ColumnSpec]] = for {
    n    <- Gen.choose(1, 6)
    ids  <- Gen.pick(n, 0 until 60)
    ord  <- Gen.listOfN(n, Gen.choose(0, 1000))
    labs <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0), 1 -> Gen.choose(2, 5), 1 -> Gen.choose(2, 40)))
  } yield ids.toSeq.zip(ord).sortBy(_._2).map(_._1).zip(labs).map { case (j, l) => ColumnSpec(j, s"c$j", l) }

  /** A continuous value: Gaussian at some scale, a repeated constant, or a signed zero. */
  private val number: Gen[Double] = Gen.frequency(
    6 -> Gen.choose(-3.0, 3.0).flatMap(s => Gen.gaussian(0, 1).map(_ * math.pow(10, s))),
    1 -> Gen.oneOf(1.5, 0.1, -0.0, 0.0))

  /** A categorical answer that is not a label of a column with `l` labels. */
  private def nonLabel(l: Int): Gen[Double] = Gen.oneOf(-1.0, l.toDouble, 0.5, l - 0.5)

  /** Answers of up to 12 workers (sparse ids) on up to 15 rows (with gaps)
    * over some of the schema's columns, no two of one worker on one cell;
    * in about one relation in five, up to three bad answers (a column
    * outside the schema, a non-finite value, a non-label, a second answer
    * of a worker on a cell); all shuffled.
    */
  private def answersOf(cols: Seq[ColumnSpec]): Gen[Seq[Answer]] = for {
    answered <- Gen.someOf(cols).map(_.toSeq)
    rows     <- Gen.someOf(0 until 15)
    workers  <- Gen.someOf((0 until 12).map(_ * 7 + 3))
    n        <- Gen.choose(0, 120)
    triples  <- Gen.listOfN(n, for {
                  c <- Gen.oneOf(if (answered.isEmpty) cols else answered)
                  i <- Gen.oneOf(if (rows.isEmpty) Seq(0) else rows.toSeq)
                  u <- Gen.oneOf(if (workers.isEmpty) Seq(3) else workers.toSeq)
                } yield (c, i, u))
    good     <- Gen.sequence[Seq[Answer], Answer](triples.distinctBy(t => (t._1.col, t._2, t._3)).map {
                  case (c, i, u) =>
                    (if (c.isCategorical) Gen.choose(0, c.numLabels - 1).map(_.toDouble) else number)
                      .map(Answer(u, i, c.col, _))
                })
    bad      <- Gen.listOf(Gen.frequency(
                  40 -> Gen.const(None),
                  1  -> Gen.const(Some(Answer(3, 2, 60, 1.0))), // a column outside the schema
                  1  -> Gen.oneOf(cols).flatMap(c => // a non-finite continuous answer or a non-label
                          if (c.isCategorical) nonLabel(c.numLabels).map(v => Some(Answer(5, 1, c.col, v)))
                          else Gen.oneOf(Double.NaN, Double.PositiveInfinity).map(v => Some(Answer(5, 1, c.col, v)))),
                  1  -> (if (good.isEmpty) Gen.const(None) // a second answer of a worker on a cell
                         else Gen.oneOf(good).map(a => Some(a.copy(value = a.value + 1)))),
                )).map(_.take(3).flatten)
    order    <- Gen.listOfN(good.size + bad.size, Gen.choose(0, 1 << 20))
  } yield (good ++ bad).zip(order).sortBy(_._2).map(_._1)

  private val relation: Gen[(Seq[ColumnSpec], Seq[Answer])] = for {
    cols    <- schema
    answers <- answersOf(cols)
  } yield (cols, answers)

  /** Every public array and E-step of the new table `t` against the reference `r`. */
  private def sameTable(cols: Seq[ColumnSpec], t: AnswerTable, r: IngestReference.Table): Prop = {
    def q(k: Int): Double = MathUtil.clampProb(0.5 + 0.49 * math.sin(k * 1.7))
    def w(k: Int): Double = 0.25 + (k % 7) * 0.4
    val (mu, tphi) = t.gaussianPosteriors(w)
    val (rMu, rTphi) = r.gaussianPosteriors(w)
    val means = for (ks <- Seq(t.catAnswers, t.contAnswers, Array.range(0, t.size));
                     (key, n) <- Seq((t.worker, t.workerIds.length), (t.cell, t.cellIds.length)))
      yield bits(t.meanPer(ks, key, n)(k => t.value(k) * w(k))) ==
        bits(r.meanPer(ArraySeq.unsafeWrapArray(ks), key, n)(k => r.value(k) * w(k)))
    (t.answers.toSeq == r.answers.toSeq) :| "answers" &&
      (t.workerIds.toSeq == r.workerIds.toSeq) :| "workerIds" &&
      (t.rowIds.toSeq == r.rowIds.toSeq) :| "rowIds" &&
      (t.colIds.toSeq == r.colIds.toSeq) :| "colIds" &&
      (t.cellIds.toSeq == r.cellIds.toSeq) :| "cellIds" &&
      (t.worker.toSeq == r.worker.toSeq) :| "worker" &&
      (t.row.toSeq == r.row.toSeq) :| "row" &&
      (t.col.toSeq == r.col.toSeq) :| "col" &&
      (t.cell.toSeq == r.cell.toSeq) :| "cell" &&
      (bits(t.value) == bits(r.value)) :| "value" &&
      (t.colLabels.toSeq == cols.map(_.numLabels)) :| "colLabels" &&
      (t.colIds.indices.forall(p => t.colPos(t.colIds(p)) == p) && t.colPos(60) == -1) :| "colPos" &&
      (t.stats.map { case (j, (m, s)) => j -> (bits(m), bits(s)) } ==
        r.stats.map { case (j, (m, s)) => j -> (bits(m), bits(s)) }) :| s"stats ${t.stats} vs ${r.stats}" &&
      (t.cellLabels.toSeq == r.cellLabels.toSeq) :| "cellLabels" &&
      (t.catCells.toSeq == r.catCells.toSeq) :| "catCells" &&
      (t.contCells.toSeq == r.contCells.toSeq) :| "contCells" &&
      (t.catAnswers.toSeq == r.catAnswers.toSeq) :| "catAnswers" &&
      (t.contAnswers.toSeq == r.contAnswers.toSeq) :| "contAnswers" &&
      (t.labelPosteriors(q).map(bits).toSeq == r.labelPosteriors(q).map(bits).toSeq) :| "labelPosteriors" &&
      (bits(mu) == bits(rMu) && bits(tphi) == bits(rTphi)) :| "gaussianPosteriors" &&
      means.forall(identity) :| "meanPer"
  }

  property("the answer table equals the reference's, or both reject the answers with one message") =
    Prop.forAllNoShrink(relation) { case (cols, answers) =>
      (Try(Model.answerTable(cols, answers)), Try(IngestReference.table(cols, answers))) match {
        case (Success(t), Success(r)) => sameTable(cols, t, r)
        case (Failure(e), Failure(f)) =>
          (e.isInstanceOf[IllegalArgumentException] && e.getMessage == f.getMessage) :|
            s"${e.getMessage} vs ${f.getMessage}"
        case (t, r) => false :| s"table $t, reference $r"
      }
    }

  /** Truth on most answered cells, on some cells without answers and on a
    * column outside the schema; estimates on a subset of the truth, some of
    * them twice, on cells without truth and on unknown columns.
    */
  private def scoring(t: AnswerTable): Gen[(Seq[TruthCell], Seq[TruthCell])] = {
    def near(c: TruthCell): Gen[TruthCell] =
      if (t.colPos(c.col) >= 0 && t.colLabels(t.colPos(c.col)) > 0)
        Gen.choose(0, t.colLabels(t.colPos(c.col)) - 1).map(v => c.copy(value = v))
      else number.map(d => c.copy(value = c.value + d))
    val cells = t.cellIds.toSeq.map { case (i, j) => TruthCell(i, j, 0.0) }
    for {
      truth   <- Gen.sequence[Seq[TruthCell], TruthCell](cells.map(near))
      kept    <- Gen.someOf(truth)
      extra   <- Gen.listOf(for {
                   i <- Gen.choose(0, 20)
                   j <- Gen.oneOf(t.colIds.toSeq :+ 61)
                 } yield TruthCell(i, j, 1.0)).map(_.take(8))
      tr      <- Gen.sequence[Seq[TruthCell], TruthCell]((kept.toSeq ++ extra).map(near))
      est     <- Gen.someOf(tr).flatMap(es => Gen.sequence[Seq[TruthCell], TruthCell](es.toSeq.map(near)))
      twice   <- Gen.someOf(est).flatMap(es => Gen.sequence[Seq[TruthCell], TruthCell](es.toSeq.map(near)))
      stray   <- Gen.listOf(Gen.zip(Gen.choose(-3, 25), Gen.oneOf(t.colIds.toSeq :+ 62), number)
                   .map { case (i, j, v) => TruthCell(i, j, v) }).map(_.take(6))
      order   <- Gen.listOfN(est.size + twice.size + stray.size, Gen.choose(0, 1 << 20))
    } yield (tr, (est ++ twice ++ stray).zip(order).sortBy(_._2).map(_._1))
  }

  property("evaluate equals the map-based reference bit for bit") =
    Prop.forAllNoShrink(relation.map { case (cols, as) => (cols, as.distinctBy(a => (a.worker, a.row, a.col))) }
      .suchThat { case (cols, as) => Try(Model.answerTable(cols, as)).isSuccess }) { case (cols, answers) =>
      val t = Model.answerTable(cols, answers)
      val r = IngestReference.table(cols, answers)
      Prop.forAllNoShrink(scoring(t)) { case (truth, est) =>
        val (er, mn) = Metrics.evaluate(t, truth, est)
        val (rEr, rMn) = IngestReference.evaluate(r, truth, est)
        (bits(er) == bits(rEr) && bits(mn) == bits(rMn)) :| s"($er, $mn) vs ($rEr, $rMn)"
      }
    }

  property("softmax equals the Seq softmax bit for bit") =
    Prop.forAll(Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, Gen.frequency(
      8 -> Gen.choose(-50.0, 50.0), 1 -> Gen.oneOf(0.0, -0.0, -1e300, 1e300, Double.NegativeInfinity))))) { s =>
      bits(MathUtil.softmax(s.toArray)) == bits(IngestReference.softmax(s).toArray)
    }
}
