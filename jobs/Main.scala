package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments

/** spark-submit entrypoint: reproduces one group of artifacts and prints
  * its tables.
  *
  * Usage: spark-submit --class repro.jobs.Main repro.jar <artifact> [args]
  *   - `table6`     Table 6 (dataset statistics), without starting Spark
  *   - `table7`     Table 7 (truth-inference effectiveness of all 11 methods)
  *   - `assignment [rows] [maxAvg]`  Fig 5 (assignment heuristics) and Fig 2
  *     (end-to-end systems); defaults `Experiments.onlineRows` rows and
  *     `Experiments.onlineMaxAvg` answers per task
  *   - `synthetic`  Fig 7/8/9 sweeps, Fig 10 noise study, Fig 12b throughput
  *
  * `SPARK_MASTER` (default `local[*]`) and `SPARK_SHUFFLE_PARTITIONS`
  * (default 8) configure the session.
  */
object Main {
  private val Artifacts = Set("table6", "table7", "assignment", "synthetic")

  def main(args: Array[String]): Unit = {
    val artifact = args.headOption.getOrElse("")
    if (!Artifacts(artifact)) {
      System.err.println(s"usage: Main <${Artifacts.mkString("|")}> [args]")
      sys.exit(2)
    }
    if (artifact == "table6") { println(Experiments.table6._2); return }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"t-crowd-$artifact")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try artifact match {
      case "table7" => println(Experiments.table7(spark)._2)
      case "assignment" =>
        val rows = args.lift(1).map(_.toInt).getOrElse(Experiments.onlineRows)
        val maxAvg = args.lift(2).map(_.toDouble).getOrElse(Experiments.onlineMaxAvg)
        println(Experiments.assignmentHeuristics(spark, rows, maxAvg)._2)
        println(Experiments.endToEnd(spark, rows, maxAvg)._2)
      case "synthetic" =>
        for (s <- Seq(Experiments.columnSweep, Experiments.ratioSweep, Experiments.difficultySweep))
          println(Experiments.sweep(spark, s)._2)
        println(Experiments.noise(spark)._2)
        println(Experiments.throughput(spark)._2)
    } finally spark.stop()
  }
}
