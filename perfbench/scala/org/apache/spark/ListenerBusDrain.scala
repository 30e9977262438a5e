package org.apache.spark

/** Waits until Spark's listener bus has delivered every queued event, so that
  * a listener's totals are complete when read. The bus is `private[spark]`,
  * hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
