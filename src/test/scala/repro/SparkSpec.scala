package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark jobs that `body` starts. A sentinel job closes the count: the
    * listener bus delivers events in order, so once the sentinel's start is
    * seen, every job `body` started has been counted.
    */
  def jobsOf(body: => Unit): Int = {
    val sc = spark.sparkContext
    var started = 0
    var sentinel = false
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        if (Option(e.properties).exists(_.getProperty("spark.job.description") == "sentinel")) sentinel = true
        else started += 1
      }
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobDescription("sentinel")
      sc.parallelize(Seq(1), 1).count()
      sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30000000000L
      while (!listener.synchronized(sentinel) && System.nanoTime() < deadline) Thread.sleep(10)
      assert(listener.synchronized(sentinel), "sentinel job not seen")
      listener.synchronized(started)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
