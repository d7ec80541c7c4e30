package org.apache.spark.kspbench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. */
object ListenerBus {
  /** Block until every posted event has reached the listeners. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
