package repro.exec

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col, lit}
import scala.jdk.CollectionConverters._
import repro.core._
import repro.core.Analysis.Catalog

/** Which physical plan to use for fixpoints (Sec. IV).
  *
  *  - [[PlanChoice.Auto]]: the paper's selection rule — if the fixpoint
  *    has a stable column, repartition the constant part by it and run
  *    `P_plw`; otherwise run `P_gld`.
  *  - The `Force*` choices pin a plan (used for the Fig. 7 / Fig. 9
  *    ablations).
  */
sealed trait PlanChoice
object PlanChoice {
  case object Auto extends PlanChoice
  case object ForceGld extends PlanChoice
  case object ForcePlwS extends PlanChoice
  case object ForcePlwPg extends PlanChoice
}

/** Term → DataFrame evaluation. Non-recursive operators map directly to
  * Dataset operations (optimized by Catalyst, as in Sec. IV); fixpoints
  * dispatch to one of the physical plans below.
  */
final class Executor(spark: SparkSession, env: Map[String, DataFrame], cfg: EngineConfig) {

  private val cat: Catalog = env.map { case (n, df) => n -> df.columns.toSet }

  /** Largest size estimate, in bytes, of a relation P_gld broadcasts. */
  private val GldBroadcastBytes = 4000000L

  def eval(t: Term): DataFrame = evalRec(t, Map.empty)

  /** `t` as a DataFrame. With `bag`, unions and anti-projections keep
    * duplicate rows instead of shuffling to remove them, and the caller
    * removes them: `P_plw` does so on the driver and in each partition.
    */
  private def evalRec(t: Term, rec: Map[String, DataFrame], bag: Boolean = false): DataFrame = {
    def ev(u: Term): DataFrame = evalRec(u, rec, bag)
    def set(df: DataFrame): DataFrame = if (bag) df else df.distinct()
    t match {
      case Rel(n) => env.getOrElse(n, throw MuRaError(s"unbound relation $n"))
      case RecVar(x) => rec.getOrElse(x, throw MuRaError(s"unbound recursive variable $x"))
      case Filter(EqConst(c, v), s) => ev(s).filter(col(c) === lit(v))
      case Filter(EqCols(a, b), s)  => ev(s).filter(col(a) === col(b))
      case Join(l, r) =>
        val dl = ev(l); val dr = ev(r)
        val common = dl.columns.toSet intersect dr.columns.toSet
        if (common.isEmpty) dl.crossJoin(dr) else dl.join(dr, common.toSeq.sorted)
      case Antijoin(l, r) =>
        val dl = ev(l); val dr = ev(r)
        val common = dl.columns.toSet intersect dr.columns.toSet
        if (common.nonEmpty) dl.join(dr, common.toSeq.sorted, "left_anti")
        else if (dr.isEmpty) dl
        else dl.limit(0)
      case Union(l, r) => set(ev(l).unionByName(ev(r)))
      case AntiProj(c, s) => set(ev(s).drop(c))
      case Rename(f, to, s) => ev(s).withColumnRenamed(f, to)
      case fix: Fix => evalFix(fix, rec)
    }
  }

  // -------------------------------------------------------------------
  // Fixpoint dispatch (the PhysicalPlanGenerator of Sec. IV-B)
  // -------------------------------------------------------------------

  private def evalFix(fix: Fix, rec: Map[String, DataFrame]): DataFrame = {
    val (constT, varB) = Analysis.decompose(fix, cat)
    if (varB.isEmpty) return evalRec(constT, rec).distinct()
    val x = fix.x
    val phi = Term.unionAll(varB)
    val stable = Stabilizer.stableCols(fix, cat).toSeq.sorted
    val gld = cfg.plan == PlanChoice.ForceGld || (cfg.plan == PlanChoice.Auto && stable.isEmpty)
    if (gld) {
      val (step, hoisted) = hoistConstants(phi, x, rec)
      pGld(evalRec(constT, rec).distinct(), x, step, hoisted)
    } else {
      // The constant part and every maximal constant subterm of φ,
      // evaluated by Catalyst as bags: the local loops receive only these.
      val rDf = evalRec(constT, rec, bag = true)
      val (step, consts) = Term.splitConstants(phi, x, "__const_")(_ => true)
      val constDfs = consts.map { case (n, c) => n -> evalRec(c, rec, bag = true) }
      if (cfg.plan == PlanChoice.ForcePlwPg) pPlwPg(rDf, x, step, constDfs, stable)
      else pPlwS(rDf, x, step, constDfs, stable)
    }
  }

  /** Replace maximal constant subterms of φ that contain a fixpoint by
    * fresh relation names bound to materialized DataFrames, so that they
    * are computed once, not per iteration.
    */
  private def hoistConstants(phi: Term, x: String,
                             rec: Map[String, DataFrame]): (Term, Map[String, DataFrame]) = {
    val (step, consts) = Term.splitConstants(phi, x, "__hoist_")(_.exists(_.isInstanceOf[Fix]))
    (step, consts.map { case (n, c) => n -> evalRec(c, rec).localCheckpoint(true) }.toMap)
  }

  // -------------------------------------------------------------------
  // P_gld: global loop on the driver (Sec. IV-A1, Algorithm 1)
  // -------------------------------------------------------------------

  /** Driver-side semi-naive loop over distributed Datasets. Every
    * iteration performs the joins of φ (broadcast joins against its small
    * constant relations, see [[gldRels]]) plus a set-difference and a
    * union — each a shuffle across the cluster, which is exactly the
    * communication cost P_plw removes.
    */
  def pGld(rDf: DataFrame, x: String, phi: Term, extra: Map[String, DataFrame]): DataFrame = {
    val cols = rDf.columns.toSeq
    val sub = new Executor(spark, gldRels(phi, extra), cfg)
    var total = rDf.localCheckpoint(true)
    var delta = total
    var iters = 0
    var done = false
    while (!done) {
      iters += 1
      if (iters > cfg.maxIters) throw MuRaError(s"P_gld exceeded ${cfg.maxIters} iterations")
      // Semi-naive applies φ to the delta only (Algorithm 1, sound by
      // Prop. 1); naive mode re-applies φ to the whole accumulated set.
      val input = if (cfg.semiNaive) delta else total
      val produced = sub.evalRec(phi, Map(x -> input)).select(cols.map(col): _*)
      val fresh = produced.except(total)
      val newDelta = fresh.localCheckpoint(true)
      if (newDelta.isEmpty) done = true
      else {
        val newTotal = total.union(newDelta).localCheckpoint(true)
        delta = newDelta
        total = newTotal
      }
    }
    total
  }

  /** φ's free relations as P_gld's loop joins them: one whose Catalyst
    * size estimate is at most `GldBroadcastBytes` is collected once and
    * bound as a broadcast local table, any other (an unknown estimate
    * included) stays a shuffle join. The explicit hint overrides a
    * session's `spark.sql.autoBroadcastJoinThreshold`.
    */
  private[exec] def gldRels(phi: Term, extra: Map[String, DataFrame]): Map[String, DataFrame] = {
    val e = env ++ extra
    phi.freeRels.map { n =>
      val df = e(n)
      n -> (if (df.queryExecution.optimizedPlan.stats.sizeInBytes > GldBroadcastBytes) df
            else broadcast(spark.createDataFrame(df.collect().toSeq.asJava, df.schema)))
    }.toMap
  }

  // -------------------------------------------------------------------
  // P_plw: parallel local loops on the workers (Sec. IV-A2 / IV-B)
  // -------------------------------------------------------------------

  /** Fixpoint splitting (Prop. 3): repartition the constant part `rDf` —
    * by the stable column(s) when they exist (then the per-worker
    * fixpoints are provably disjoint and no final distinct is needed),
    * round-robin otherwise (then one final distinct merges the local
    * results). `consts` are φ's maximal constant subterms: each is
    * collected once, deduplicated and broadcast. Each non-empty partition
    * runs `loop` on them and its distinct slice of the constant part, in
    * `rDf`'s column order. `rDf` may be a bag: by stable columns a row's
    * duplicates land in one partition, and round-robin the final distinct
    * merges them. No data crosses the cluster during the recursion.
    * `loop` is the task closure, so it must not capture `this` (it is not
    * serializable).
    */
  private def pPlw(rDf: DataFrame, consts: List[(String, DataFrame)], stable: Seq[String])
                  (loop: (Map[String, LocalRel], Vector[Vector[Any]]) => Iterator[Row]): DataFrame = {
    val localRels: Map[String, LocalRel] = consts.map { case (n, df) =>
      n -> LocalRel(df.columns.toVector, df.collect().toVector.map(r => r.toSeq.toVector).distinct)
    }.toMap
    val bc = spark.sparkContext.broadcast(localRels)
    val parted =
      if (stable.nonEmpty) rDf.repartition(cfg.nPartitions, stable.map(col): _*)
      else rDf.repartition(cfg.nPartitions)
    val rowRdd = parted.rdd.mapPartitions { it =>
      val rows = it.map(_.toSeq.toVector).toVector.distinct
      if (rows.isEmpty) Iterator.empty else loop(bc.value, rows)
    }
    val df = spark.createDataFrame(rowRdd, rDf.schema)
    if (stable.isEmpty) df.distinct() else df
  }

  /** `P_plw^s`: each partition runs [[LocalEval.fixpoint]], hash joins
    * against the broadcast constants (each indexed once per partition) plus
    * partition-wise union and set difference — the SetRDD technique of
    * BigDatalog.
    */
  private def pPlwS(rDf: DataFrame, x: String, step: Term, consts: List[(String, DataFrame)],
                    stable: Seq[String]): DataFrame = {
    val cols = rDf.columns.toVector
    val maxIters = cfg.maxIters
    pPlw(rDf, consts, stable) { (rels, rows) =>
      LocalEval.fixpoint(x, LocalRel(cols, rows), step, rels, Map.empty, maxIters)
        .aligned(cols).rows.iterator.map(Row.fromSeq)
    }
  }

  /** `P_plw^pg` (DuckDB substituting PostgreSQL, see DESIGN.md): each
    * partition loads the broadcast constants and its slice of the constant
    * part (the paper's per-worker PostgreSQL *view*) into an in-process
    * database and runs the translated `WITH RECURSIVE` query.
    */
  private def pPlwPg(rDf: DataFrame, x: String, step: Term, consts: List[(String, DataFrame)],
                     stable: Seq[String]): DataFrame = {
    val schemas = consts.map { case (n, df) => n -> df.schema }.toMap
    val gen = new SqlGen(
      relTable = schemas.map { case (n, _) => n -> DuckDb.table(n) },
      relCols = schemas.map { case (n, s) => n -> s.fieldNames.toSeq })
    val schema = rDf.schema
    val fixSql = gen.localFixpointQuery(Term.unionBranches(step), x, "part_r", schema.fieldNames.toSeq)
    val types = schema.fields.map(_.dataType).toSeq
    pPlw(rDf, consts, stable) { (rels, rows) =>
      DuckDb.withConnection { conn =>
        rels.foreach { case (n, r) => DuckDb.load(conn, DuckDb.table(n), schemas(n), r.rows) }
        DuckDb.load(conn, "part_r", schema, rows)
        DuckDb.query(conn, fixSql, types)
      }.iterator
    }
  }
}
