package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.metrics.Metrics
import scala.util.{Failure, Success, Try}

/** The primitive-loop [[AnswerTable]] against its definitions, and
  * [[MathUtil.softmax]] and `Metrics.evaluate` against the code they
  * replaced ([[IngestReference]]), bit for bit, on generated answer
  * relations: unsorted answers, sparse and out-of-order column ids, 2-40
  * labels, single-answer cells, schema columns without answers, row gaps
  * and bad answers.
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

  /** The order of the table's answers: by row, column, worker, then value under `java.lang.Double.compare`. */
  private val answerOrder: Ordering[Answer] = Ordering.by((a: Answer) => (a.row, a.col, a.worker, a.value))(
    Ordering.Tuple4(Ordering.Int, Ordering.Int, Ordering.Int, Ordering.Double.TotalOrdering))

  /** The message of the `IllegalArgumentException` with which the answer
    * table rejects `answers`, as its scaladoc orders the checks: the first
    * answer, in the table's order, on a column outside the schema or
    * continuous and not finite; else the first of two answers of one worker
    * on one cell; else the first categorical answer that is not a label. None
    * if no answer is bad.
    */
  private def rejection(cols: Seq[ColumnSpec], answers: Seq[Answer]): Option[String] = {
    val labels = cols.map(c => c.col -> c.numLabels).toMap
    val sorted = answers.sorted(answerOrder)
    val perCell = answers.groupMapReduce(a => (a.worker, a.row, a.col))(_ => 1)(_ + _)
    def cell(a: Answer) = s"cell (${a.row}, ${a.col})"
    sorted.collectFirst {
      case a if !labels.contains(a.col) => s"answer on ${cell(a)}: column ${a.col} is not in the schema"
      case a if labels(a.col) == 0 && !a.value.isFinite => s"answer ${a.value} on ${cell(a)} is not a finite number"
    }.orElse(sorted.collectFirst {
      case a if perCell((a.worker, a.row, a.col)) > 1 => s"worker ${a.worker} answered ${cell(a)} twice"
    }).orElse(sorted.collectFirst {
      case a if labels(a.col) > 0 && !(a.value >= 0 && a.value < labels(a.col) && a.value == a.value.floor) =>
        s"requirement failed: answer ${a.value} on ${cell(a)} is not a label in [0, ${labels(a.col)})"
    })
  }

  /** A relation without bad answers: one answer per worker and cell, which the answer table accepts. */
  private[core] val goodRelation: Gen[(Seq[ColumnSpec], Seq[Answer])] =
    relation.map { case (cols, as) => (cols, as.distinctBy(a => (a.worker, a.row, a.col))) }
      .suchThat { case (cols, as) => rejection(cols, as).isEmpty }

  property("the answer table rejects a relation iff it holds a bad answer, naming the first") =
    Prop.forAllNoShrink(relation) { case (cols, answers) =>
      (Try(Model.answerTable(cols, answers)), rejection(cols, answers)) match {
        case (Success(_), None) => Prop.passed
        case (Failure(e: IllegalArgumentException), Some(m)) => (e.getMessage == m) :| s"${e.getMessage} vs $m"
        case (t, m) => false :| s"table $t, defined rejection $m"
      }
    }

  /** A sum from 0 in the order given, as the table sums. */
  private def sum(xs: Iterable[Double]): Double = xs.foldLeft(0.0)(_ + _)

  property("the answer table's arrays and E-steps follow their definitions") =
    Prop.forAllNoShrink(goodRelation) { case (cols, answers) =>
      val t = Model.answerTable(cols, answers)
      val as = t.answers.toSeq
      val labelsOf = cols.map(c => c.col -> c.numLabels).toMap
      def cellOf(a: Answer) = (a.row, a.col)
      def key(a: Answer) = (a.worker, a.row, a.col, bits(a.value))
      // Moments over each continuous column's answers in ascending order, the std floored at 1e-9
      val stats = cols.filter(_.isContinuous).flatMap { c =>
        val vs = answers.filter(_.col == c.col).map(_.value).sorted(Ordering.Double.TotalOrdering)
        Option.when(vs.nonEmpty) {
          val m = new MathUtil.Moments
          vs.foreach(v => m.add(v))
          c.col -> (m.meanX, math.max(math.sqrt(m.varX), 1e-9))
        }
      }.toMap
      def value(a: Answer): Double =
        if (labelsOf(a.col) > 0) a.value.toInt.toDouble else (a.value - stats(a.col)._1) / stats(a.col)._2
      def q(k: Int): Double = MathUtil.clampProb(0.5 + 0.49 * math.sin(k * 1.7))
      def w(k: Int): Double = 0.25 + (k % 7) * 0.4
      // Eq. 4: label z of cell c scores the sum of ln q - ln((1 - q)/(L - 1)) over c's answers z
      val labelPost = t.cellIds.indices.map { c =>
        val l = t.cellLabels(c)
        MathUtil.softmax(Array.tabulate(l)(z => sum(t.catAnswers.toSeq.filter(k => t.cell(k) == c && t.value(k) == z)
          .map(k => math.log(q(k)) - math.log((1.0 - q(k)) / (l - 1))))))
      }
      val gauss = t.cellIds.indices.map { c =>
        val ks = t.contAnswers.toSeq.filter(t.cell(_) == c)
        Model.gaussian(sum(ks.map(w)), sum(ks.map(k => w(k) * t.value(k))))
      }
      val (mu, tphi) = t.gaussianPosteriors(w)
      val means = for (ks <- Seq(t.catAnswers, t.contAnswers, Array.range(0, t.size));
                       (id, n) <- Seq((t.worker, t.workerIds.length), (t.cell, t.cellIds.length))) yield {
        val want = (0 until n).map { i =>
          val xs = ks.toSeq.filter(id(_) == i).map(k => t.value(k) * w(k))
          if (xs.isEmpty) 0.0 else sum(xs) / xs.size
        }
        bits(t.meanPer(ks, id, n)(k => t.value(k) * w(k))) == want.map(bits)
      }
      (as.map(key).sorted == answers.map(key).sorted) :| "answers are the input's" &&
        as.lazyZip(as.drop(1)).forall(answerOrder.lteq) :| "answers are sorted" &&
        (t.size == as.size) :| "size" &&
        (t.workerIds.toSeq == answers.map(_.worker).distinct.sorted) :| "workerIds" &&
        (t.rowIds.toSeq == answers.map(_.row).distinct.sorted) :| "rowIds" &&
        (t.colIds.toSeq == cols.map(_.col)) :| "colIds" &&
        (t.cellIds.toSeq == answers.map(cellOf).distinct.sorted) :| "cellIds" &&
        as.indices.forall(k => t.workerIds(t.worker(k)) == as(k).worker) :| "worker" &&
        as.indices.forall(k => t.rowIds(t.row(k)) == as(k).row) :| "row" &&
        as.indices.forall(k => t.colIds(t.col(k)) == as(k).col) :| "col" &&
        as.indices.forall(k => t.cellIds(t.cell(k)) == cellOf(as(k))) :| "cell" &&
        (t.stats.map { case (j, (m, s)) => j -> (bits(m), bits(s)) } ==
          stats.map { case (j, (m, s)) => j -> (bits(m), bits(s)) }) :| s"stats ${t.stats} vs $stats" &&
        (bits(t.value) == as.map(a => bits(value(a)))) :| "value" &&
        (t.colLabels.toSeq == cols.map(_.numLabels)) :| "colLabels" &&
        (t.colIds.indices.forall(p => t.colPos(t.colIds(p)) == p) && t.colPos(60) == -1) :| "colPos" &&
        (t.cellLabels.toSeq == t.cellIds.toSeq.map(c => labelsOf(c._2))) :| "cellLabels" &&
        (t.catCells.toSeq == t.cellIds.indices.filter(t.cellLabels(_) > 0)) :| "catCells" &&
        (t.contCells.toSeq == t.cellIds.indices.filter(t.cellLabels(_) == 0)) :| "contCells" &&
        (t.catAnswers.toSeq == as.indices.filter(k => labelsOf(as(k).col) > 0)) :| "catAnswers" &&
        (t.contAnswers.toSeq == as.indices.filter(k => labelsOf(as(k).col) == 0)) :| "contAnswers" &&
        (t.labelPosteriors(q).map(bits).toSeq == labelPost.map(bits)) :| "labelPosteriors" &&
        (bits(mu) == gauss.map(g => bits(g._1)) && bits(tphi) == gauss.map(g => bits(g._2))) :| "gaussianPosteriors" &&
        means.forall(identity) :| "meanPer"
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
    Prop.forAllNoShrink(goodRelation) { case (cols, answers) =>
      val t = Model.answerTable(cols, answers)
      Prop.forAllNoShrink(scoring(t)) { case (truth, est) =>
        val (er, mn) = Metrics.evaluate(t, truth, est)
        val (rEr, rMn) = IngestReference.evaluate(t, truth, est)
        (bits(er) == bits(rEr) && bits(mn) == bits(rMn)) :| s"($er, $mn) vs ($rEr, $rMn)"
      }
    }

  property("softmax equals the Seq softmax bit for bit") =
    Prop.forAll(Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, Gen.frequency(
      8 -> Gen.choose(-50.0, 50.0), 1 -> Gen.oneOf(0.0, -0.0, -1e300, 1e300, Double.NegativeInfinity))))) { s =>
      bits(MathUtil.softmax(s.toArray)) == bits(IngestReference.softmax(s).toArray)
    }
}
