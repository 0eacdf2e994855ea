package org.apache.spark

/** Blocks until every event posted to the listener bus so far has been
  * delivered. `SparkContext.listenerBus` is `private[spark]`, hence this
  * one-line shim lives in Spark's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
