package repro.perfbench

import repro.core.{AssignState, AssignStrategy}
import scala.collection.mutable

/** Delegating [[AssignStrategy]] that times every `pick` of `inner` and
  * leaves the session unchanged: `name`, `needsSnapshot`,
  * `needsCorrelation`, `pick` and `observe` all forward to `inner`.
  *
  * It also times the checkpoint refreshes of an `Assignment.simulate`
  * session, seen from outside as the gaps between picks. `simulate` runs a
  * checkpoint after a pick once `log.size / nCells` reaches the next
  * multiple of `checkpointEvery` above 1.0; this wrapper replays that test
  * on the log size it sees at the next pick, so the gap before that pick is
  * a refresh. The first refresh is the time from construction to the first
  * pick and the last one the time from the last pick to [[end]], so build
  * the wrapper just before `simulate`.
  *
  * @param nCells          cells of the simulated table
  * @param checkpointEvery the session's `SimRunConfig.checkpointEvery`
  */
final class TimedStrategy(inner: AssignStrategy, nCells: Int, checkpointEvery: Double)
    extends AssignStrategy {
  def name: String = inner.name
  override def needsSnapshot: Boolean = inner.needsSnapshot
  override def needsCorrelation: Boolean = inner.needsCorrelation
  override def observe(u: Int, i: Int, j: Int, value: Double): Unit = inner.observe(u, i, j, value)

  /** Nanoseconds spent in each `pick`, in order. */
  val pickNanos: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  /** Nanoseconds of each checkpoint refresh, in order. */
  val refreshNanos: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty

  private val started = System.nanoTime()
  private var lastPickEnd = 0L
  private var nextCheckpoint = 1.0 + checkpointEvery

  /** Call just after `Assignment.simulate` returns. */
  def end(): Unit = refreshNanos += System.nanoTime() - lastPickEnd

  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val t0 = System.nanoTime()
    if (lastPickEnd == 0L) refreshNanos += t0 - started
    else if (st.log.size.toDouble / nCells >= nextCheckpoint) {
      refreshNanos += t0 - lastPickEnd
      nextCheckpoint += checkpointEvery
    }
    val out = inner.pick(st, u)
    lastPickEnd = System.nanoTime()
    pickNanos += lastPickEnd - t0
    out
  }
}
