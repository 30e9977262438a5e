package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments

/** Reproduces Table 6 (dataset statistics). The surrogate generators must
  * match the paper's numbers *exactly* — this is the contract under which
  * the Table 7 comparison is meaningful. It runs no Spark job.
  */
class Table6Bench extends AnyFunSuite {

  private lazy val (stats, rendered) = Experiments.table6

  test("Table 6 renders and is archived") {
    println(rendered)
    Experiments.writeReport("table6.txt", rendered)
    assert(rendered.contains("Celebrity"))
  }

  test("Celebrity row matches the paper: 174 / 7 / 1218 / 5") {
    assert(stats.find(_._1 == "Celebrity").get == (("Celebrity", 174, 7, 1218L, 5)))
  }

  test("Restaurant row matches the paper: 203 / 5 / 1015 / 4") {
    assert(stats.find(_._1 == "Restaurant").get == (("Restaurant", 203, 5, 1015L, 4)))
  }

  test("Emotion row matches the paper: 100 / 7 / 700 / 10") {
    assert(stats.find(_._1 == "Emotion").get == (("Emotion", 100, 7, 700L, 10)))
  }
}
