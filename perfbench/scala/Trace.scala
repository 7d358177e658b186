package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Process-wide JVM counters read at span boundaries. */
object JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
  def gcMs: Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum
  def gcCount: Long = gcs.map(g => math.max(0L, g.getCollectionCount)).sum
  def cpuNs: Long = os.getProcessCpuTime
}

/** One timed region. `t0`/`t1` are `System.nanoTime`; the JVM counters are
  * read at both ends, and `counts` holds values the harness attaches from
  * the public return values of the call the span encloses.
  */
final class Span(
    val id: Int, val parent: Int, val pass: Int, val solve: Int,
    val name: String, val replay: Boolean,
    val t0: Long, val alloc0: Long, val gcMs0: Long, val gcN0: Long, val cpu0: Long,
) {
  var t1, alloc1, gcMs1, gcN1, cpu1 = 0L
  val counts = mutable.LinkedHashMap.empty[String, Double]
  val children = mutable.ArrayBuffer.empty[Span]
  def layer: String = name.takeWhile(_ != '.')
  def ms: Double = (t1 - t0) / 1e6
  def alloc: Long = alloc1 - alloc0
  def selfAlloc: Long = alloc - children.map(_.alloc).sum
  /** Duration minus the part its children cover (they never overlap: one thread). */
  def selfMs: Double = ms - children.map(_.ms).sum
}

/** Spark engine events as the listener bus delivers them. */
final case class SparkEvent(timeMs: Long, job: Boolean, busyMs: Long, shuffleBytes: Long)

final class SparkEvents extends SparkListener {
  val events = new ConcurrentLinkedQueue[SparkEvent]()
  @volatile var jobsStarted, jobsEnded = 0
  override def onJobStart(e: SparkListenerJobStart): Unit = {
    jobsStarted += 1
    events.add(SparkEvent(e.time, job = true, 0L, 0L))
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val busy = if (m == null) e.taskInfo.duration else m.executorRunTime
    val shuffle = if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten
    events.add(SparkEvent(e.taskInfo.finishTime, job = false, busy, shuffle))
  }

  /** Waits until every started job has ended and no event arrived for a while. */
  def drain(): Unit = {
    var last = -1
    var quiet = 0
    val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
    while (quiet < 3 && System.nanoTime() < deadline) {
      Thread.sleep(100)
      val now = events.size
      if (now == last && jobsStarted == jobsEnded) quiet += 1 else quiet = 0
      last = now
    }
  }
}

/** Spans the harness opens around its own calls into the program's public
  * functions. With `on = false` every method is a pass-through, so the
  * untraced run pays nothing.
  *
  * Hierarchy: a pass span parents solve spans, which parent call spans; all
  * spans of one solve share its id. A `replay` span is a direct call of a
  * layer hidden inside an enclosing call, made only to time that layer; its
  * duration is left out of the traced pass total.
  */
final class Tracer(val on: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private var pass = -1
  private var solve = -1
  private val baseNs = System.nanoTime()
  private val baseMs = System.currentTimeMillis()

  def epochMs(ns: Long): Double = baseMs + (ns - baseNs) / 1e6

  def span[T](name: String, replay: Boolean = false)(body: => T): T =
    if (!on) body
    else {
      if (name == "pass") pass += 1
      if (name == "solve") solve += 1
      val parent = stack.headOption
      val s = new Span(spans.length, parent.fold(-1)(_.id), pass, if (stack.isEmpty) -1 else solve,
        name, replay || parent.exists(_.replay),
        System.nanoTime(), JvmCounters.allocBytes, JvmCounters.gcMs, JvmCounters.gcCount, JvmCounters.cpuNs)
      spans += s
      parent.foreach(_.children += s)
      stack = s :: stack
      try body
      finally {
        s.t1 = System.nanoTime(); s.alloc1 = JvmCounters.allocBytes
        s.gcMs1 = JvmCounters.gcMs; s.gcN1 = JvmCounters.gcCount; s.cpu1 = JvmCounters.cpuNs
        stack = stack.tail
      }
    }

  /** Every span, for the report written when the run ends. */
  def records(sparkBy: Map[Span, Seq[SparkEvent]]): Seq[Map[String, Any]] = spans.toSeq.map { s =>
    val ev = sparkBy.getOrElse(s, Nil)
    Map("id" -> s.id, "parent" -> s.parent, "pass" -> s.pass, "solve" -> s.solve, "name" -> s.name,
      "replay" -> s.replay, "start_ms" -> (s.t0 - baseNs) / 1e6, "ms" -> s.ms, "self_ms" -> s.selfMs,
      "alloc_bytes" -> s.alloc, "self_alloc_bytes" -> s.selfAlloc, "gc_ms" -> (s.gcMs1 - s.gcMs0),
      "spark_jobs" -> ev.count(_.job), "spark_tasks" -> ev.count(!_.job), "counts" -> s.counts)
  }

  /** Adds `v` to counter `key` of the innermost open span. */
  def count(key: String, v: Double): Unit =
    if (on) stack.headOption.foreach(s => s.counts(key) = s.counts.getOrElse(key, 0.0) + v)

  /** Traced duration of a pass span: its wall time minus its replays. */
  def passMs(p: Span): Double = p.ms - replays(p).map(_.ms).sum

  /** Top-level replay spans under `s`. */
  def replays(s: Span): Seq[Span] =
    s.children.toSeq.flatMap(c => if (c.replay) Seq(c) else replays(c))

  private def descendants(s: Span): Seq[Span] = s.children.toSeq.flatMap(c => c +: descendants(c))

  /** Assigns each Spark event to the innermost span open at its time. */
  def attribute(events: Iterable[SparkEvent]): Map[Span, Seq[SparkEvent]] = {
    val byDepth = spans.filter(_.name != "pass").toSeq
    events.toSeq.flatMap { e =>
      val t = e.timeMs.toDouble
      byDepth.filter(s => epochMs(s.t0) - 1 <= t && t <= epochMs(s.t1) + 1)
        .sortBy(s => -depth(s)).headOption.map(_ -> e)
    }.groupBy(_._1).map { case (s, es) => s -> es.map(_._2) }
  }

  private def depth(s: Span): Int = if (s.parent < 0) 0 else 1 + depth(spans(s.parent))

  /** Per-layer metrics of one traced pass span. */
  def passLayers(p: Span, sparkBy: Map[Span, Seq[SparkEvent]], slots: Int): Map[String, Double] = {
    val all = descendants(p)
    val live = all.filterNot(_.replay)
    def ms(name: String) = all.filter(_.name == name).map(_.ms).sum
    def cnt(key: String) = all.map(_.counts.getOrElse(key, 0.0)).sum
    def mb(bytes: Double) = bytes / (1 << 20)
    def selfAllocMb(layer: String) = mb(all.filter(_.layer == layer).map(_.selfAlloc.toDouble).sum)
    val ev = live.flatMap(s => sparkBy.getOrElse(s, Nil))
    val busy = ev.map(_.busyMs).sum.toDouble
    val sparkWall = live.filter(_.layer == "diffgraph").map(_.ms).sum
    val reps = replays(p)
    val traced = passMs(p)
    // layer time along the blocking path: the call spans directly under solves
    val calls = live.filter(s => s.parent >= 0 && spans(s.parent).name == "solve")
    val unattributed = traced - calls.map(_.ms).sum
    val inits = cnt("newsea.inits")
    Map(
      "diffgraph.to_wgraph_ms" -> live.filter(_.name == "diffgraph.to_wgraph").map(_.ms).sum,
      "diffgraph.stats_ms" -> ms("diffgraph.stats"),
      "diffgraph.edges_collected" -> cnt("diffgraph.edges_collected"),
      "spark.jobs" -> ev.count(_.job).toDouble,
      "spark.tasks" -> ev.count(!_.job).toDouble,
      "spark.task_busy_ms" -> busy,
      "spark.shuffle_write_mb" -> mb(ev.map(_.shuffleBytes).sum.toDouble),
      "spark.slot_util" -> (if (sparkWall > 0) busy / (sparkWall * slots) else 0.0),
      "wgraph.from_edges_ms" -> ms("wgraph.from_edges"),
      "wgraph.positive_part_ms" -> live.filter(_.name == "wgraph.positive_part").map(_.ms).sum,
      "wgraph.core_numbers_ms" -> ms("wgraph.core_numbers"),
      "wgraph.ego_max_weight_ms" -> ms("wgraph.ego_max_weight"),
      "wgraph.alloc_mb" -> selfAllocMb("wgraph"),
      "dcsgreedy.run_ms" -> ms("dcsgreedy.run"),
      "peeling.greedy_ms" -> ms("peeling.greedy"),
      "dcsgreedy.alloc_mb" -> selfAllocMb("dcsgreedy"),
      "dcsgreedy.ratio_max" -> all.flatMap(_.counts.get("dcsgreedy.ratio")).maxOption.getOrElse(0.0),
      "egoscan.run_ms" -> ms("egoscan.run"),
      "newsea.run_ms" -> ms("newsea.run"),
      "newsea.all_inits_ms" -> ms("newsea.all_inits"),
      "newsea.smart_bounds_ms" -> ms("newsea.smart_bounds"),
      "newsea.inits" -> inits,
      "newsea.inits_frac" -> (if (cnt("newsea.n") > 0) inits / cnt("newsea.n") else 0.0),
      "newsea.seeds_above_f" -> cnt("newsea.seeds_above_f"),
      "newsea.alloc_mb" -> selfAllocMb("newsea"),
      "seacd.run_ms" -> cnt("seacd.run_ms"),
      "seacd.outer_iters" -> cnt("seacd.outer_iters"),
      "seacd.expansion_errors" -> cnt("seacd.expansion_errors"),
      "refinement.run_ms" -> cnt("refinement.run_ms"),
      "replicator_sea.run_ms" -> cnt("replicator_sea.run_ms"),
      "replicator_sea.outer_iters" -> cnt("replicator_sea.outer_iters"),
      "replicator_sea.expansion_errors" -> cnt("replicator_sea.expansion_errors"),
      "cliques.distinct" -> cnt("cliques.distinct"),
      "cliques.kept" -> cnt("cliques.kept"),
      "cliques.drop_subsets_ms" -> ms("cliques.drop_subsets"),
      "jvm.gc_ms" -> ((p.gcMs1 - p.gcMs0) - reps.map(r => r.gcMs1 - r.gcMs0).sum).toDouble,
      "jvm.gc_count" -> ((p.gcN1 - p.gcN0) - reps.map(r => r.gcN1 - r.gcN0).sum).toDouble,
      "jvm.cpu_s" -> ((p.cpu1 - p.cpu0) - reps.map(r => r.cpu1 - r.cpu0).sum) / 1e9,
      "pass.traced_ms" -> traced,
      "pass.unattributed_ms" -> unattributed,
      "pass.unattributed_frac" -> (if (traced > 0) unattributed / traced else 0.0),
    )
  }
}
