package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions.{bit_xor, col, count, lit, sum, xxhash64}
import repro.core._
import repro.exec.{Engines, MuRaEngine}
import repro.ucrpq.Query2Mu
import scala.collection.mutable

/** Measures one run of one workload and writes a raw record (JSON) plus,
  * for a traced run, the spans (JSON lines). `perfbench/run.py` builds
  * this program, runs it and turns the record into metrics.
  *
  * Usage: Main --workload W --seed N --seconds S --trace 0|1 --out DIR
  */
object Main {

  /** Data set-ups per run; setup time is their median. */
  val SetupReps = 3

  /** Untimed passes after the verifying pass, for at least this long:
    * the JIT is still compiling Spark's and the program's code
    * during the first passes, which run up to a third slower.
    */
  val WarmSeconds = 6.0

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: File)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      new File(need("out")))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload)
    o.out.mkdirs()
    val bench = new Bench(w, o)
    try bench.run() finally bench.spark.stop()
    // stop() drains the listener bus, so every job is recorded by now
    bench.write()
  }

  // ------------------------------------------------------------ checksums

  /** Order-independent checksum of a set of rows: row count, XOR and
    * 32-bit-lane sum of Spark's `xxhash64` over the columns in name order.
    */
  final case class Check(rows: Long, xor: Long, sum: Long) {
    override def toString: String = f"$rows/$xor%016x/$sum%x"
  }

  def check(df: DataFrame): Check = {
    val h = xxhash64(df.columns.sorted.map(col).toIndexedSeq: _*)
    val r = df.agg(count(lit(1)), bit_xor(h), sum(h.bitwiseAND(0xffffffffL))).head()
    Check(r.getLong(0), if (r.isNullAt(1)) 0L else r.getLong(1), if (r.isNullAt(2)) 0L else r.getLong(2))
  }

  def check(r: LocalRel): Check = {
    val order = r.cols.sorted
    var xor = 0L; var s = 0L
    r.aligned(order).rows.foreach { row =>
      var h = 42L
      row.foreach {
        case v: Long => h = XXH64.hashLong(v, h)
        case v: Int  => h = XXH64.hashInt(v, h)
        case v       => throw new IllegalStateException(s"unexpected result value $v")
      }
      xor ^= h; s += h & 0xffffffffL
    }
    Check(r.size.toLong, xor, s)
  }

  // ----------------------------------------------------------------- json

  def json(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: collection.Map[_, _] => m.map { case (k, x) => json(k.toString) + ":" + json(x) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(json).mkString("[", ",", "]")
    case other => json(other.toString)
  }

  def obj(kv: (String, Any)*): mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap(kv: _*)
}

final class Bench(w: Workload, o: Main.Opts) {
  import Main._

  private val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
  private val nproc = Runtime.getRuntime.availableProcessors()
  private val localDir = new File(o.out, "spark-local").getAbsolutePath

  // Configured as the program's spark-submit jobs configure theirs
  // (jobs/Jobs.scala), on local[nproc].
  val spark: SparkSession = SparkSession.builder
    .master(s"local[$nproc]")
    .appName(s"perfbench-${w.name}")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.ui.enabled", false)
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", localDir)
    .config("spark.sql.warehouse.dir", new File(o.out, "warehouse").getAbsolutePath)
    .getOrCreate()
  spark.sparkContext.setLogLevel("WARN")
  private val sc = spark.sparkContext
  private val bootS = (System.currentTimeMillis() - jvmStartMs) / 1000.0

  private val tracer = new Tracer
  private val sparkTrace = new SparkTrace
  private val heap = new HeapPeak
  private val record = obj()
  private var engines: Map[String, MuRaEngine] = Map.empty
  private var datasets: Map[String, Dataset] = Map.empty
  private val referenceMs = mutable.LinkedHashMap.empty[String, Double]

  def run(): Unit = {
    val setupS = setup()
    val (refS, reference) = timedS(computeReference())
    val (verifyS, verify) = timedS(verifyPass(reference))
    if (o.trace) sc.addSparkListener(sparkTrace)
    val passes = timedPhase(reference)
    val rt = Runtime.getRuntime
    record ++= Seq(
      "meta" -> obj(
        "workload" -> w.name, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
        "nproc" -> nproc, "xmx_mb" -> rt.maxMemory() / (1 << 20),
        "spark_version" -> spark.version, "master" -> sc.master,
        "partitions" -> engines.values.map(_.cfg.nPartitions).toSeq.distinct,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "default_parallelism" -> sc.defaultParallelism,
        "java_version" -> System.getProperty("java.version"),
        "queries" -> w.queries.map(_.id)),
      "boot_s" -> bootS,
      "setup_data_s" -> setupS,
      "reference_s" -> refS,
      "reference_ms" -> referenceMs,
      "verify_s" -> verifyS,
      "verify" -> verify,
      "passes" -> passes,
      "heap_peak_mb" -> heap.peakBytes / 1048576.0,
      "gc_collections" -> heap.collections,
    )
  }

  /** Generates the inputs and builds the engines `SetupReps` times (the
    * last set is kept); returns the time of each.
    */
  private def setup(): Seq[Double] = (1 to SetupReps).map { _ =>
    datasets.values.foreach(_.catalog.values.foreach(_.unpersist(true)))
    val (s, _) = timedS {
      datasets = w.generate(spark, o.seed)
      engines = datasets.map { case (n, d) => n -> Engines.distMuRA(spark, d.catalog, d.constants) }
      engines.values.foreach(_.warmup())
    }
    s
  }

  private def timedS[A](f: => A): (Double, A) = {
    val t0 = System.nanoTime(); val a = f; ((System.nanoTime() - t0) / 1e9, a)
  }

  private def translate(q: BenchQuery): Term =
    q.term.getOrElse(Query2Mu.translate(q.ucrpq.get, datasets(q.dataset).constants))

  private lazy val localCatalogs: Map[String, Map[String, LocalRel]] = datasets.map { case (n, d) =>
    n -> d.catalog.map { case (r, df) =>
      r -> LocalRel(df.columns.toVector, df.collect().toVector.map(_.toSeq.toVector))
    }
  }

  /** The independent reference: the program's in-memory evaluator on the
    * unoptimized translation, without the rewriter and without Spark.
    */
  private def computeReference(): Map[String, Check] = w.queries.map { q =>
    val (s, c) = timedS(check(LocalEval.eval(translate(q), localCatalogs(q.dataset))))
    referenceMs(q.id) = s * 1000
    q.id -> c
  }.toMap

  /** An untimed pass that also warms the JIT: each query's full result
    * is checksummed and compared with the reference.
    */
  private def verifyPass(reference: Map[String, Check]): Seq[Any] = w.queries.map { q =>
    val got = try Right(check(engines(q.dataset).run(translate(q))))
      catch { case e: Throwable => Left(e.toString) }
    obj("query" -> q.id, "reference" -> reference(q.id).toString,
      "result" -> got.fold(identity, _.toString), "ok" -> got.contains(reference(q.id)))
  }

  /** Untimed warm-up passes, then whole timed passes over the query list
    * until `seconds` have passed. A traced run alternates untraced and
    * traced passes, so the tracing overhead is measured within the run.
    */
  private def timedPhase(reference: Map[String, Check]): Seq[Any] = {
    val out = mutable.ArrayBuffer.empty[Any]
    def pass(p: Int, kind: String): Unit = {
      val t0 = System.nanoTime()
      val qs = w.queries.map(q => if (kind == "traced") tracedQuery(q, p, reference) else plainQuery(q, reference))
      out += obj("pass" -> p, "kind" -> kind, "wall_ms" -> (System.nanoTime() - t0) / 1e6, "queries" -> qs)
    }
    var p = 0
    val warmEnd = System.nanoTime() + (WarmSeconds * 1e9).toLong
    while (p < 1 || System.nanoTime() < warmEnd) { pass(p, "warmup"); p += 1 }
    heap.active = true
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    // at least two passes of each kind, so medians and repeat checks exist
    val minPasses = p + (if (o.trace) 4 else 2)
    val first = p
    while (p < minPasses || System.nanoTime() < deadline) {
      pass(p, if (o.trace && (p - first) % 2 == 1) "traced" else "plain")
      p += 1
    }
    heap.active = false
    out.toSeq
  }

  private def plainQuery(q: BenchQuery, reference: Map[String, Check]): Any = {
    val eng = engines(q.dataset)
    val t0 = System.nanoTime()
    val rows = try Right(q.ucrpq match {
        case Some(s) => eng.runQuery(s).count()
        case None => eng.run(q.term.get).count()
      }) catch { case e: Throwable => Left(e.toString) }
    val ms = (System.nanoTime() - t0) / 1e6
    obj("query" -> q.id, "ms" -> ms, "rows" -> rows.fold(_ => -1L, identity),
      "ok" -> rows.contains(reference(q.id).rows), "error" -> rows.left.toOption.orNull)
  }

  /** `runQuery` split into its public steps, each a span. */
  private def tracedQuery(q: BenchQuery, pass: Int, reference: Map[String, Check]): Any = {
    val eng = engines(q.dataset)
    tracer.query = q.id; tracer.pass = pass
    sc.setLocalProperty(SparkTrace.QueryProp, q.id)
    sc.setLocalProperty(SparkTrace.PassProp, pass.toString)
    var estimateCalls = 0
    var plans = 0
    val res = try Right(tracer.span("query") {
      val t = q.ucrpq match {
        case Some(s) => tracer.span("ucrpq.translate")(Query2Mu.translate(s, datasets(q.dataset).constants))
        case None => q.term.get
      }
      tracer.span("analysis.check") { Analysis.checkFcond(t); Analysis.sort(t, eng.cat) }
      val candidates = tracer.span("rewriter.explore") {
        Rewriter.explore(t, eng.cat, eng.cfg.rewrite, rank = p => tracer.span("cost.estimate") {
          estimateCalls += 1
          Cost.estimate(p, eng.stats, eng.cat).cost
        })
      }
      plans = candidates.size
      val plan = tracer.span("cost.best")(Cost.best(candidates, eng.stats, eng.cat))
      val rows = tracer.span("exec.execute")(eng.execute(plan).count())
      (t, plan, rows)
    }) catch { case e: Throwable => Left(e.toString) }
    sc.setLocalProperty(SparkTrace.QueryProp, null)
    sc.setLocalProperty(SparkTrace.PassProp, null)
    val rec = obj("query" -> q.id, "rows" -> res.fold(_ => -1L, _._3),
      "error" -> res.left.toOption.orNull, "plans" -> plans, "estimate_calls" -> estimateCalls)
    res.foreach { case (t, plan, rows) =>
      val (plw, gld) = planChoice(plan, eng.cat)
      val est = try Cost.estimate(plan, eng.stats, eng.cat).rows catch { case MuRaError(_) => Double.NaN }
      val sameAsProgram = Analysis.alphaEq(plan, eng.optimize(t), eng.cat)
      rec ++= Seq("fix_plw" -> plw, "fix_gld" -> gld, "est_rows" -> est, "alpha_eq" -> sameAsProgram)
      if (q.ucrpq.isDefined) {
        val local = tracer.span("local_eval")(LocalEval.eval(plan, localCatalogs(q.dataset)))
        rec += "local_eval_rows" -> local.size.toLong
      }
      rec += "ok" -> (rows == reference(q.id).rows && sameAsProgram &&
        rec.get("local_eval_rows").forall(_ == rows))
    }
    if (res.isLeft) rec += "ok" -> false
    rec
  }

  /** Physical plans Auto picks for the fixpoints of a plan: the
    * executor's rule — `P_plw` when the fixpoint has a stable column,
    * `P_gld` otherwise; a fixpoint without recursive branch runs neither.
    */
  private def planChoice(plan: Term, cat: Analysis.Catalog): (Int, Int) = {
    var plw = 0; var gld = 0
    def go(t: Term): Unit = t match {
      case f @ Fix(_, body) =>
        if (Analysis.decompose(f, cat)._2.nonEmpty) {
          if (Stabilizer.stableCols(f, cat).nonEmpty) plw += 1 else gld += 1
        }
        go(body)
      case Rel(_) | RecVar(_) => ()
      case Filter(_, s) => go(s)
      case AntiProj(_, s) => go(s)
      case Rename(_, _, s) => go(s)
      case Join(l, r) => go(l); go(r)
      case Antijoin(l, r) => go(l); go(r)
      case Union(l, r) => go(l); go(r)
    }
    go(plan)
    (plw, gld)
  }

  /** Writes the record and, for a traced run, the spans with the Spark
    * jobs as children of their query's execute span.
    */
  def write(): Unit = {
    if (o.trace) {
      val execSpans = tracer.spans.filter(_.name == "exec.execute").map(s => (s.query, s.pass) -> s.id).toMap
      sparkTrace.jobs.foreach { j =>
        execSpans.get((j.query, j.pass)).foreach { parent =>
          tracer.add("spark.job", parent, j.query, j.pass, tracer.epochMsToNs(j.startMs), tracer.epochMsToNs(j.endMs))
        }
      }
      record += "jobs" -> sparkTrace.jobs.filter(_.pass >= 0).map { j =>
        obj("query" -> j.query, "pass" -> j.pass, "tasks" -> j.tasks, "stages" -> j.stageRuns.size,
          "task_run_ms" -> j.taskRunMs, "task_cpu_ms" -> j.taskCpuNs / 1e6, "task_deser_ms" -> j.taskDeserMs,
          "task_result_bytes" -> j.resultBytes, "shuffle_write_bytes" -> j.shuffleWrite,
          "shuffle_read_bytes" -> j.shuffleRead, "shuffle_fetch_wait_ms" -> j.fetchWaitMs, "gc_ms" -> j.gcMs,
          "stage_skew" -> j.stageRuns.values.map { runs =>
            val s = runs.sorted
            val med = s(s.size / 2)
            if (med > 0) s.last.toDouble / med else 1.0
          })
      }
      val pw = new PrintWriter(new File(o.out, "spans.jsonl"), "UTF-8")
      try tracer.spans.sortBy(_.startNs).foreach { s =>
        pw.println(json(obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "query" -> s.query,
          "pass" -> s.pass, "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
      } finally pw.close()
    }
    val pw = new PrintWriter(new File(o.out, "record.json"), "UTF-8")
    try pw.println(json(record)) finally pw.close()
  }
}
