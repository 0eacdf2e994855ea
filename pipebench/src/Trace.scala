package repro.pipebench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.{ListenerDrain, SparkContext, Success}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.jdk.CollectionConverters._

/** Cumulative Spark work counters, as seen by a listener. */
final case class Work(jobs: Long = 0, tasks: Long = 0, failedTasks: Long = 0,
                      shuffleWriteBytes: Long = 0, shuffleReadBytes: Long = 0,
                      spillBytes: Long = 0, taskRunMs: Long = 0, taskCpuNs: Long = 0,
                      gcMs: Long = 0) {
  private def zip(o: Work, f: (Long, Long) => Long): Work = Work(f(jobs, o.jobs), f(tasks, o.tasks),
    f(failedTasks, o.failedTasks), f(shuffleWriteBytes, o.shuffleWriteBytes),
    f(shuffleReadBytes, o.shuffleReadBytes), f(spillBytes, o.spillBytes),
    f(taskRunMs, o.taskRunMs), f(taskCpuNs, o.taskCpuNs), f(gcMs, o.gcMs))
  def +(o: Work): Work = zip(o, _ + _)
  def -(o: Work): Work = zip(o, _ - _)
}

/** Listener that accumulates [[Work]] over the whole application. */
final class WorkListener extends SparkListener {
  private var w = Work()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    w = w.copy(jobs = w.jobs + 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val failed = if (e.reason == Success) 0 else 1
    val m = e.taskMetrics
    w = w + (if (m == null) Work(tasks = 1, failedTasks = failed)
      else Work(0, 1, failed, m.shuffleWriteMetrics.bytesWritten,
        m.shuffleReadMetrics.totalBytesRead, m.diskBytesSpilled, m.executorRunTime,
        m.executorCpuTime, m.jvmGCTime))
  }

  def snapshot: Work = synchronized(w)
}

/** One span: a call into one layer, with its wall time and Spark work. */
final case class Span(name: String, wallS: Double, work: Work, cores: Int) {
  /** Two calls into the same layer, as one. */
  def +(o: Span): Span = Span(name, wallS + o.wallS, work + o.work, cores)

  def counters: Seq[(String, Double)] = {
    val mb = 1024.0 * 1024.0
    val runS = work.taskRunMs / 1e3
    Seq(
      "wall_s" -> wallS,
      "jobs" -> work.jobs.toDouble,
      "tasks" -> work.tasks.toDouble,
      "failed_tasks" -> work.failedTasks.toDouble,
      "shuffle_write_mb" -> work.shuffleWriteBytes / mb,
      "shuffle_read_mb" -> work.shuffleReadBytes / mb,
      "spill_mb" -> work.spillBytes / mb,
      "task_run_s" -> runS,
      "task_cpu_s" -> work.taskCpuNs / 1e9,
      "gc_s" -> work.gcMs / 1e3,
      "core_util" -> (if (wallS > 0) runS / (wallS * cores) else 0.0))
  }
}

/** Times calls into layers. With a listener (traced run) each span also
  * records the Spark work done inside it, after the listener bus has drained
  * on both sides; without one (untraced run) it only reads the clock.
  */
final class Tracer(sc: SparkContext, listener: Option[WorkListener], cores: Int) {
  val spans = scala.collection.mutable.ArrayBuffer.empty[Span]

  private def work(): Work = listener match {
    case Some(l) => ListenerDrain(sc); l.snapshot
    case None => Work()
  }

  def span[T](name: String)(body: => T): T = {
    val w0 = work()
    val t0 = System.nanoTime()
    val out = body
    val wallS = (System.nanoTime() - t0) / 1e9
    spans += Span(name, wallS, work() - w0, cores)
    out
  }

  def wall(name: String): Double = spans.filter(_.name == name).map(_.wallS).sum
}

/** Peak heap in use right after a GC, over an interval. Driver and executors
  * share one JVM in local mode, so this is the whole process's live heap.
  */
final class HeapPeak {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet
  private val peak = new java.util.concurrent.atomic.AtomicLong(0L)

  private val onGc = new NotificationListener {
    def handleNotification(n: Notification, hb: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        peak.accumulateAndGet(used, math.max(_, _))
      }
  }
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(onGc, null, null)
    case _ =>
  }

  def reset(): Unit = peak.set(0L)

  /** Peak after-GC heap in MB since `reset`; the current heap if no GC ran. */
  def peakMb: Double = {
    val p = peak.get
    (if (p > 0) p else ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed) / (1024.0 * 1024.0)
  }
}
