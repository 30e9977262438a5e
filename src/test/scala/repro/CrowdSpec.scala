package repro

/** Base for the reproduction's suites: SparkSpec plus tuning for the small
  * DataFrame aggregations the DuckDB-checked tests run (64-partition
  * shuffles would dominate wall-clock at ~10^3-row cardinalities).
  */
trait CrowdSpec extends SparkSpec {
  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }
}
