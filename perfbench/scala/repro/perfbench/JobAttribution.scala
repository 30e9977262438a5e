package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** Work done by one program module: Spark jobs, the summed wall-clock of
  * those jobs and the shuffle bytes their tasks wrote.
  */
final case class ModuleWork(jobs: Long, busyNanos: Long, shuffleBytes: Long) {
  def +(o: ModuleWork): ModuleWork =
    ModuleWork(jobs + o.jobs, busyNanos + o.busyNanos, shuffleBytes + o.shuffleBytes)
  def -(o: ModuleWork): ModuleWork =
    ModuleWork(jobs - o.jobs, busyNanos - o.busyNanos, shuffleBytes - o.shuffleBytes)
}

object ModuleWork {
  val zero: ModuleWork = ModuleWork(0L, 0L, 0L)
}

/** Attributes every Spark job to the program module that issued it.
  *
  * A SQL job is traced to the call site of its (root) SQL execution, which
  * Spark captures on the calling thread. Stage names cannot be used: with
  * adaptive execution most stages are submitted from a pool thread and are
  * named after `CompletableFuture`. A job outside any SQL execution falls
  * back to the call site of its first stage. The module is the first
  * `repro.` frame of the call site outside this harness, with the `repro.`
  * prefix and any `$...` suffix dropped, e.g. `core.TCrowd`.
  *
  * Spark delivers events on its listener thread, so [[snapshot]] first
  * waits until the listener bus is empty.
  */
final class JobAttribution(sc: SparkContext) extends SparkListener {
  import JobAttribution._

  private val execSite = new ConcurrentHashMap[Long, String]()
  private val jobModule = mutable.Map.empty[Int, (String, Long)] // job -> (module, start ms)
  private val stageModule = mutable.Map.empty[Int, String]
  private val work = mutable.Map.empty[String, ModuleWork]

  private def add(module: String, w: ModuleWork): Unit =
    work(module) = work.getOrElse(module, ModuleWork.zero) + w

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => execSite.put(e.executionId, e.details)
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(key: String): Option[Long] =
      Option(e.properties).flatMap(p => Option(p.getProperty(key))).map(_.toLong)
    val site = prop(SQLExecution.EXECUTION_ROOT_ID_KEY).orElse(prop(SQLExecution.EXECUTION_ID_KEY))
      .flatMap(id => Option(execSite.get(id)))
      .orElse(e.stageInfos.sortBy(_.stageId).headOption.map(_.details))
      .getOrElse("")
    val module = moduleOf(site)
    jobModule(e.jobId) = (module, e.time)
    e.stageIds.foreach(s => stageModule(s) = module)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobModule.remove(e.jobId).foreach { case (module, start) =>
      add(module, ModuleWork(1L, (e.time - start) * 1000000L, 0L))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val bytes = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    if (bytes > 0) add(stageModule.getOrElse(e.stageId, Other), ModuleWork(0L, 0L, bytes))
  }

  /** Totals per module since the listener was registered. */
  def snapshot: Map[String, ModuleWork] = {
    ListenerBusDrain(sc)
    synchronized(work.toMap)
  }
}

object JobAttribution {
  val Other = "other"

  /** First `repro.` frame of a Spark long-form call site, outside this harness. */
  def moduleOf(callSite: String): String =
    callSite.linesIterator.map(_.trim)
      .find(f => f.startsWith("repro.") && !f.startsWith("repro.perfbench."))
      .map { frame =>
        val cls = frame.takeWhile(_ != '(').split('.').dropRight(1) // drop the method
        cls.drop(1).mkString(".").takeWhile(_ != '$')
      }
      .getOrElse(Other)

  /** Per-module difference of two snapshots. */
  def delta(after: Map[String, ModuleWork], before: Map[String, ModuleWork]): Map[String, ModuleWork] =
    after.map { case (m, w) => m -> (w - before.getOrElse(m, ModuleWork.zero)) }
}
