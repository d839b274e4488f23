package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A timed step of one query. `parent` is -1 for a root span. Times are
  * nanoseconds on the tracer's clock.
  */
final case class Span(id: Int, parent: Int, name: String, query: String, pass: Int,
                      startNs: Long, endNs: Long)

/** Records spans around calls into the program, in memory; they are
  * written out once the run ends.
  */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var stack: List[Int] = Nil
  private var nextId = 0
  var query = ""
  var pass = 0

  private val baseNs = System.nanoTime()
  private val baseEpochMs = System.currentTimeMillis()

  /** A listener event time (epoch ms) on the tracer's clock. */
  def epochMsToNs(ms: Long): Long = baseNs + (ms - baseEpochMs) * 1000000L

  def span[A](name: String)(f: => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      spans += Span(id, parent, name, query, pass, t0, t1)
    }
  }

  /** A span whose interval was measured elsewhere (a Spark job). */
  def add(name: String, parent: Int, query: String, pass: Int, startNs: Long, endNs: Long): Unit = {
    spans += Span(nextId, parent, name, query, pass, startNs, endNs); nextId += 1
  }
}

/** Spark work of one job, keyed by the query and pass that ran it. */
final class JobStats(val query: String, val pass: Int, val startMs: Long) {
  var endMs: Long = startMs
  var tasks = 0L
  var taskRunMs = 0L
  var taskCpuNs = 0L
  var taskDeserMs = 0L
  var resultBytes = 0L
  var shuffleWrite = 0L
  var shuffleRead = 0L
  var fetchWaitMs = 0L
  var gcMs = 0L
  /** Task run times per stage (for skew). */
  val stageRuns: mutable.LinkedHashMap[Int, mutable.ArrayBuffer[Long]] = mutable.LinkedHashMap.empty
}

/** Collects Spark jobs and task metrics for the traced run. Jobs are
  * attributed through the local properties set before each query.
  */
final class SparkTrace extends SparkListener {
  val jobs: mutable.ArrayBuffer[JobStats] = mutable.ArrayBuffer.empty
  private val byJob = mutable.HashMap.empty[Int, JobStats]
  private val byStage = mutable.HashMap.empty[Int, JobStats]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val q = props.flatMap(p => Option(p.getProperty(SparkTrace.QueryProp))).getOrElse("")
    val pass = props.flatMap(p => Option(p.getProperty(SparkTrace.PassProp))).map(_.toInt).getOrElse(-1)
    val js = new JobStats(q, pass, e.time)
    jobs += js; byJob(e.jobId) = js
    e.stageIds.foreach(s => if (!byStage.contains(s)) byStage(s) = js)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byJob.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) byStage.get(e.stageId).foreach { js =>
      js.tasks += 1
      js.taskRunMs += m.executorRunTime
      js.taskCpuNs += m.executorCpuTime
      js.taskDeserMs += m.executorDeserializeTime
      js.resultBytes += m.resultSize
      js.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      js.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      js.fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
      js.gcMs += m.jvmGCTime
      js.stageRuns.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += m.executorRunTime
    }
  }
}

object SparkTrace {
  val QueryProp = "perfbench.query"
  val PassProp = "perfbench.pass"
}

/** Highest heap occupancy right after a garbage collection, over the
  * intervals in which it is active.
  */
final class HeapPeak extends NotificationListener {
  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  @volatile var active = false
  @volatile var peakBytes = 0L
  @volatile var collections = 0

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case em: NotificationEmitter => em.addNotificationListener(this, null, null)
    case _ =>
  }

  override def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (active && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.collect {
        case (pool, u) if heapPools.contains(pool) => u.getUsed
      }.sum
      collections += 1
      if (used > peakBytes) peakBytes = used
    }
}
