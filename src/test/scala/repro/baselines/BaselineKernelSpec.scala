package repro.baselines

import org.apache.spark.sql.Row
import repro.CrowdSpec
import repro.core._
import repro.crowd.{CrowdSim, SimColumn, SimConfig}
import scala.io.Source
import scala.util.Random

/** The driver-side baselines against the estimates that their Spark
  * DataFrame implementations produced (recorded in
  * `recorded-estimates.tsv`), their independence from how the answer
  * relation is partitioned and ordered, and the single Spark job of every
  * `infer`.
  */
class BaselineKernelSpec extends CrowdSpec {

  private def sim(name: String, rows: Int, columns: Seq[SimColumn], workers: Int, perTask: Int): CrowdDataset =
    new CrowdSim(SimConfig(name, rows, columns, workers, perTask, seed = 5L)).dataset(spark)

  // 8 rows of TCrowdKernelSpec's mixed columns, and its 40-label set
  private lazy val datasets: Map[String, CrowdDataset] = Map(
    "mixed" -> sim("mixed", 8, Seq(SimColumn("c3", 3), SimColumn("c6", 6),
      SimColumn("x", 0, 0, 100), SimColumn("y", 0, -5, 5)), workers = 12, perTask = 4),
    "forty" -> sim("forty", 24, Seq(SimColumn("c40", 40), SimColumn("c2", 2), SimColumn("x", 0, 0, 10)),
      workers = 10, perTask = 5),
  )

  private val methods: Seq[InferenceMethod] =
    Seq(MajorityVote, MedianBaseline, Crh(), Catd(), Gtm(), DawidSkene(), Glad(), ZenCrowd())

  /** (dataset, method name) -> (row, col) -> recorded estimate. */
  private lazy val recorded: Map[(String, String), Map[(Int, Int), Double]] = {
    val src = Source.fromResource("repro/baselines/recorded-estimates.tsv")
    try src.getLines().filterNot(_.startsWith("#")).map(_.split('\t')).toSeq
      .groupBy(f => (f(0), f(1)))
      .map { case (k, fs) => k -> fs.map(f => (f(2).toInt, f(3).toInt) -> f(4).toDouble).toMap }
    finally src.close()
  }

  for (m <- methods; set <- Seq("mixed", "forty"))
    test(s"${m.name} reproduces the recorded estimates on the $set set") {
      val ds = datasets(set)
      val want = recorded((set, m.name))
      val got = m.infer(ds).map(t => (t.row, t.col) -> t.value)
      assert(got.map(_._1).distinct.size == got.size, "one estimate per cell")
      assert(got.toMap.keySet == want.keySet)
      got.foreach { case (cell @ (_, j), v) =>
        if (ds.labelCount(j) > 0) assert(v == want(cell), s"label of $cell")
        else assert(math.abs(v - want(cell)) <= 1e-9 * math.max(1.0, math.abs(want(cell))),
          s"value of $cell: $v vs recorded ${want(cell)}")
      }
    }

  test("every baseline is bit-identical for any partitioning and answer order") {
    val ds = datasets("mixed")
    val answers = ds.answers.collect().toSeq
    def withAnswers(rows: Seq[Row], slices: Int): CrowdDataset =
      ds.copy(answers = spark.createDataFrame(spark.sparkContext.parallelize(rows, slices), Model.answerSchema))
    val variants = Seq(1, 4, 16).map(k => withAnswers(answers, k)) :+ withAnswers(new Random(3).shuffle(answers), 4)
    for (m <- methods) {
      val runs = variants.map(d => m.infer(d).toSet)
      assert(runs.distinct.size == 1, m.name)
    }
  }

  test("every infer issues one Spark job whatever the iteration count, VoteMedian included") {
    val ds = datasets("mixed")
    def tc(iters: Int) = TCrowdConfig(maxIters = iters, gdSteps = iters)
    val byIters: Seq[Int => InferenceMethod] = Seq(
      i => TCrowdMethod(tc(i)), i => TCrowdOnlyCate(tc(i)), i => TCrowdOnlyCont(tc(i)),
      i => Crh(i), i => Catd(i), _ => MajorityVote, _ => MedianBaseline,
      i => DawidSkene(i), i => Glad(i, gdSteps = i), i => ZenCrowd(i), i => Gtm(i))
    // one collect per fresh dataset; a second infer reads the kept table
    for (mk <- byIters; iters <- Seq(1, 8)) {
      val (m, fresh) = (mk(iters), ds.copy())
      assert(jobsOf(m.infer(fresh)) == 1, s"${m.name} at $iters iterations")
      assert(jobsOf(m.infer(fresh)) == 0, s"${m.name} at $iters iterations, again")
    }
    val fresh = ds.copy()
    assert(jobsOf(VoteMedian.infer(fresh)) == 1)
    assert(jobsOf(VoteMedian.infer(fresh)) == 0)
  }
}
