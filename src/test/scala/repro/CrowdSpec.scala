package repro

import org.apache.spark.sql.functions.col
import repro.core.{ColumnSpec, CrowdDataset}

/** Base for the reproduction's suites: SparkSpec plus tuning for the many
  * small iterative aggregations the EM methods run (64-partition shuffles
  * would dominate wall-clock at ~10^3-row cardinalities).
  */
trait CrowdSpec extends SparkSpec {
  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  /** `ds` restricted to the columns `cols`: its schema, answers and truth,
    * for checks that need the DataFrames (the Spark reference EM).
    */
  def restrictTo(ds: CrowdDataset, cols: Seq[ColumnSpec], suffix: String): CrowdDataset = {
    val keep = cols.map(_.col)
    CrowdDataset(s"${ds.name}-$suffix", ds.answers.filter(col("col").isin(keep: _*)), cols,
      ds.truth.filter(col("col").isin(keep: _*)))
  }
}
