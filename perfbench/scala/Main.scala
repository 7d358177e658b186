package perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.jobs.JobContext

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Runs one workload in a closed loop on the driver thread and prints one
  * JSON report as its last line of standard output.
  *
  * Usage: `perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  *
  * Set-up runs three times; the first starts the `SparkSession`, the others
  * reuse it after the previous set-up dropped what it cached. Each set-up is
  * followed by a full GC and a measuring window, so the measured passes run
  * on the inputs of all three set-ups and at three times in the run. Window
  * `k` ends once `k/3` of `--seconds` has been measured in all. The two
  * passes after the first set-up warm the JIT and are discarded. With
  * `--trace 1` untraced and traced passes alternate, so the tracing
  * overhead is measured in the same process.
  */
object Main {
  val setups = 3
  /** Passes discarded after the first set-up, until the JIT has settled. */
  val warmup = 2

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val name = opt("workload")
    val seed = opt.getOrElse("seed", "0").toLong
    val seconds = opt.getOrElse("seconds", "10").toDouble
    val trace = opt.getOrElse("trace", "0") == "1"
    val wl = Workload(name)
    var spark: SparkSession = null
    val sparkStartMs = mutable.ArrayBuffer.empty[Double]
    val setupMs = mutable.ArrayBuffer.empty[Double]
    def setUp(): Unit = {
      if (spark != null) wl.release()
      val t0 = System.nanoTime()
      spark = JobContext.spark(s"perfbench-$name")
      sparkStartMs += (System.nanoTime() - t0) / 1e6
      wl.setup(spark, seed)
      setupMs += (System.nanoTime() - t0) / 1e6
      // set-up garbage is collected here, not during the measured passes
      System.gc()
    }
    setUp()
    val sc = spark.sparkContext
    // events outside every span, such as those of later set-ups, are dropped
    val listener = new SparkEvents
    if (trace) sc.addSparkListener(listener)

    val tr = new Tracer(trace)
    val untraced = new Tracer(false)
    val passes = mutable.ArrayBuffer.empty[Map[String, Any]]
    val solves = mutable.ArrayBuffer.empty[Map[String, Any]]

    def runPass(index: Int, t: Tracer, warm: Boolean): Unit = {
      val done = mutable.ArrayBuffer.empty[(Solve, Double, Either[String, Outcome])]
      val t0 = System.nanoTime()
      t.span("pass") {
        try {
          wl.pass().foreach { s =>
            val s0 = System.nanoTime()
            val out =
              try Right(t.span("solve")(s.run(t)))
              catch { case NonFatal(e) => Left(s"threw $e") }
            done += ((s, (System.nanoTime() - s0) / 1e6, out))
          }
        } finally wl.endPass()
      }
      val ms = (System.nanoTime() - t0) / 1e6
      passes += Map("index" -> index, "warmup" -> warm, "traced" -> t.on, "ms" -> ms)
      for ((s, sMs, out) <- done) {
        val errors = out match {
          case Left(e) => Seq(e)
          case Right(o) => try o.check() catch { case NonFatal(e) => Seq(s"check threw $e") }
        }
        solves += Map("pass" -> index, "warmup" -> warm, "traced" -> t.on, "key" -> s.key, "ms" -> sMs,
          "errors" -> errors, "answer" -> out.toOption.map(_.answer))
      }
    }

    var index = 0
    var timed = 0
    var measuredS = 0.0
    for (k <- 1 to setups) {
      if (k > 1) setUp()
      // the JIT warms once; passes right after a later set-up are not slower
      if (k == 1) for (_ <- 0 until warmup) { runPass(index, untraced, warm = true); index += 1 }
      val windowEnd = seconds * k / setups
      var inWindow = 0
      while (inWindow == 0 || measuredS < windowEnd) {
        val t0 = System.nanoTime()
        runPass(index, if (trace && timed % 2 == 1) tr else untraced, warm = false)
        measuredS += (System.nanoTime() - t0) / 1e9
        index += 1; timed += 1; inWindow += 1
      }
    }

    // live heap: what the workload keeps reachable after a full collection
    System.gc(); System.gc()
    val liveHeapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)

    val sparkBy = if (!trace) Map.empty[Span, Seq[SparkEvent]] else {
      listener.drain()
      tr.attribute(listener.events.asScala)
    }
    val layers = if (!trace) Map.empty[String, Any] else {
      val slots = sc.defaultParallelism
      val perPass = tr.spans.filter(_.name == "pass").toSeq.map(p => tr.passLayers(p, sparkBy, slots))
      val untracedMs = passes.filter(p => p("warmup") == false && p("traced") == false).map(_("ms").asInstanceOf[Double]).toSeq
      val tracedMs = perPass.map(_("pass.traced_ms"))
      val keys = perPass.head.keys
      keys.map(k => k -> median(perPass.map(_(k)))).toMap +
        ("trace.overhead_frac" -> (median(tracedMs) / median(untracedMs) - 1.0))
    }

    val conf = spark.conf
    val report = Map(
      "workload" -> name, "seed" -> seed, "trace" -> trace,
      "setup_ms" -> setupMs.toSeq, "spark_start_ms" -> sparkStartMs, "measured_s" -> measuredS,
      "passes" -> passes, "solves" -> solves,
      "live_heap_mb" -> liveHeapMb, "layers" -> layers, "spans" -> tr.records(sparkBy),
      "sizes" -> wl.sizes,
      "provenance" -> Map(
        "java" -> System.getProperty("java.version"),
        "jvm" -> System.getProperty("java.vm.name"),
        "scala" -> scala.util.Properties.versionNumberString,
        "spark" -> spark.version,
        "master" -> sc.master,
        "default_parallelism" -> sc.defaultParallelism,
        "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
        "adaptive" -> conf.get("spark.sql.adaptive.enabled"),
        "auto_broadcast_join_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
        "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq,
        "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq,
      ),
    )
    spark.stop()
    println(Json.write(report))
    System.out.flush()
    sys.exit(0)
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }
}
