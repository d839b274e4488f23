package repro.exec

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.{BROADCAST, HintInfo, LocalRelation, ResolvedHint}
import repro.{Oracle, SparkSpec, SparkTestData}
import repro.SparkTestData._
import repro.core._
import repro.core.TestGraphs._
import repro.queries.MuRaTerms

/** Distributed execution of μ-RA terms: non-recursive operators on
  * Datasets and all three fixpoint physical plans (P_gld, P_plw^s,
  * P_plw^pg), cross-checked against the in-memory evaluator and the
  * DuckDB oracle with independently hand-written recursive SQL.
  */
class ExecutorSpec extends SparkSpec {

  /** Cached and materialized, as the engines' catalogs are, so Catalyst
    * knows its size and P_gld's broadcast rule applies.
    */
  private def sized(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Uncached: Catalyst has no size estimate, so P_gld never broadcasts. */
  private def rawEnv = Map(
    "E" -> edgeDf(spark, paperE),
    "S" -> edgeDf(spark, paperS))

  private lazy val env = rawEnv.map { case (n, df) => n -> sized(df) }

  private def cfg(plan: PlanChoice, nPart: Int = 4) =
    EngineConfig(plan = plan, nPartitions = nPart, maxIters = 1000)

  private def exec(plan: PlanChoice, nPart: Int = 4) = new Executor(spark, env, cfg(plan, nPart))

  private val gld = cfg(PlanChoice.ForceGld)

  /** A plan paired with how its inputs are bound. On cached inputs P_gld
    * joins φ's relations by broadcast; on uncached ones by shuffle.
    */
  private final class Run(cfg: EngineConfig, cached: Boolean = true) {
    def input(df: DataFrame): DataFrame = if (cached) sized(df) else df
    def on(rels: Map[String, DataFrame]): Executor = new Executor(spark, rels, cfg)
    def exec: Executor = on(if (cached) env else rawEnv)
  }

  // ------------------------------------------------- non-recursive ops

  test("filter, rename, antiproject on Datasets") {
    val t = AntiProj("m", Rename("trg", "m", Filter(EqConst("src", 1L), Rel("E"))))
    val df = exec(PlanChoice.Auto).eval(t)
    assert(df.columns.toSeq == Seq("src"))
    assert(toLongs(df) == Set(1L))
  }

  test("natural join matches composition") {
    val t = Term.compose(Rel("S"), Rel("E"))
    val df = exec(PlanChoice.Auto).eval(t)
    assert(toPairs(df) == bruteCompose(paperS, paperE))
  }

  test("antijoin on Datasets") {
    val df = exec(PlanChoice.Auto).eval(Antijoin(Rel("E"), Rel("S")))
    assert(toPairs(df) == paperE -- paperS)
  }

  test("union deduplicates on Datasets") {
    val df = exec(PlanChoice.Auto).eval(Union(Rel("E"), Rel("S")))
    assert(df.count() == paperE.size)
  }

  test("column-equality filter") {
    val withLoop = edgeDf(spark, paperE + ((3L, 3L)))
    val ex = new Executor(spark, Map("E" -> withLoop), EngineConfig())
    assert(toPairs(ex.eval(Filter(EqCols("src", "trg"), Rel("E")))) == Set((3L, 3L)))
  }

  // ------------------------------------------------------ fixpoint plans

  private val plans = Seq(
    "P_gld" -> new Run(gld),
    "P_gld (shuffle joins)" -> new Run(gld, cached = false),
    "P_plw_s" -> new Run(cfg(PlanChoice.ForcePlwS)),
    "P_plw_pg" -> new Run(cfg(PlanChoice.ForcePlwPg)),
    "Auto" -> new Run(cfg(PlanChoice.Auto)))

  for ((name, p) <- plans) {
    test(s"$name: Example 2 fixpoint matches the paper trace") {
      val df = p.exec.eval(example2)
      assert(toPairs(df) == bruteFrom(paperS, paperE))
    }

    test(s"$name: E+ equals brute transitive closure") {
      val df = p.exec.eval(closureE)
      assert(toPairs(df) == bruteClosure(paperE))
    }

    test(s"$name: no duplicates in the result") {
      val df = p.exec.eval(closureE)
      assert(df.count() == df.distinct().count())
    }

    test(s"$name: random graph closure matches oracle (recursive SQL)") {
      val e = randEdges(15, 30, seed = 7)
      val eDf = p.input(edgeDf(spark, e))
      val df = p.on(Map("E" -> eDf)).eval(closureE)
      Oracle.assertEquivalent(
        df.select(df.col("src"), df.col("trg")),
        """WITH RECURSIVE tc AS (
          |  SELECT src, trg FROM e
          |  UNION
          |  SELECT tc.src, e.trg FROM tc JOIN e ON tc.trg = e.src
          |) SELECT src, trg FROM tc""".stripMargin,
        "e" -> eDf)
    }

    test(s"$name: merged-style fixpoint (two variable branches)") {
      val prepend = AntiProj("k1", Join(Rename("trg", "k1", Rel("E")), Rename("src", "k1", RecVar("Z"))))
      val append  = AntiProj("k2", Join(Rename("trg", "k2", RecVar("Z")), Rename("src", "k2", Rel("E"))))
      val fix = Fix("Z", Union(Rel("S"), Union(prepend, append)))
      val df = p.exec.eval(fix)
      assert(toPairs(df) == asPairs(LocalEval.eval(fix,
        Map("E" -> rel(paperE), "S" -> rel(paperS)))))
    }
  }

  test("Auto picks P_plw for stable fixpoints and results match P_gld") {
    val a = exec(PlanChoice.Auto).eval(example2)
    val g = exec(PlanChoice.ForceGld).eval(example2)
    assert(toPairs(a) == toPairs(g))
  }

  test("fixpoint with nested constant fixpoint in φ is hoisted and correct") {
    // μ(X = S ∪ X ∘ (E+)) = S ∘ (E+)* = S ∘ E*  restricted to ≥0 E+ steps
    val fix = Fix("X", Union(Rel("S"),
      AntiProj("c", Join(Rename("trg", "c", RecVar("X")),
        Rename("src", "c", Term.closure(Rel("E"), "Y"))))))
    for ((_, p) <- plans) {
      val df = p.exec.eval(fix)
      assert(toPairs(df) == bruteFrom(paperS, bruteClosure(paperE)))
    }
  }

  test("P_plw_s partitions more than workers still correct") {
    val df = exec(PlanChoice.ForcePlwS, nPart = 13).eval(closureE)
    assert(toPairs(df) == bruteClosure(paperE))
  }

  test("single-partition P_plw_s equals local evaluation") {
    val df = exec(PlanChoice.ForcePlwS, nPart = 1).eval(example2)
    assert(toPairs(df) == bruteFrom(paperS, paperE))
  }

  test("maxIters guard fires in P_gld") {
    val ex = new Executor(spark, env, cfg(PlanChoice.ForceGld).copy(maxIters = 1))
    assertThrows[MuRaError](ex.eval(closureE).count())
  }

  test("labeled-graph fixpoint through σ_pred (edge terms)") {
    val g = randLabeled(10, 25, Seq("a", "b"), seed = 3)
    val edgeA = AntiProj("pred", Filter(EqConst("pred", "a"), Rel("G")))
    val t = Term.closure(edgeA)
    val expected = bruteClosure(g.collect { case (s, "a", o) => (s, o) })
    for ((_, p) <- plans) {
      assert(toPairs(p.on(Map("G" -> p.input(labeledDf(spark, g)))).eval(t)) == expected)
    }
  }

  test("reach-style single-column fixpoint on all plans") {
    // reachable node set from node 1: μ(X = π̃_src σ_src=1(E) ∪ step)
    val base = AntiProj("src", Filter(EqConst("src", 1L), Rel("E")))
    val step = AntiProj("m", Join(Rename("trg", "m", RecVar("X")),
      Rename("src", "m", Rel("E"))))
    val fix = Fix("X", Union(base, step))
    val expected = bruteClosure(paperE).filter(_._1 == 1L).map(_._2)
    for ((_, p) <- plans) {
      val df = p.exec.eval(fix)
      assert(SparkTestData.toLongs(df) == expected)
    }
  }

  // ------------------------- P_plw's broadcast constants and local loops

  /** A labelled graph whose label c occurs nowhere. */
  private val lg = randLabeled(14, 45, Seq("a", "b"), seed = 11)
  private def label(l: String): Set[(Long, Long)] = lg.collect { case (s, `l`, o) => (s, o) }
  private def edge(l: String): Term = AntiProj("pred", Filter(EqConst("pred", l), Rel("G")))

  private val plwRuns = Seq(
    "P_plw_s" -> new Run(cfg(PlanChoice.ForcePlwS)),
    "P_plw_pg" -> new Run(cfg(PlanChoice.ForcePlwPg)))

  for ((name, p) <- plwRuns) {
    def evalG(t: Term): Set[(Long, Long)] =
      toPairs(p.on(Map("G" -> p.input(labeledDf(spark, lg)))).eval(t))

    test(s"$name: constant operand on the left of the join") {
      // μ(X = a ∪ π̃_m(ρ_src^m(b) ⋈ ρ_trg^m(X))) = a ∘ b*
      val step = AntiProj("m", Join(Rename("src", "m", edge("b")), Rename("trg", "m", RecVar("X"))))
      assert(evalG(Fix("X", Union(edge("a"), step))) == bruteFrom(label("a"), label("b")))
    }

    test(s"$name: antijoin against a constant subterm") {
      // μ(X = a ∪ (X ∘ a) ▷ b): extend a-paths, never adding a b edge
      val fix = Fix("X", Union(edge("a"), Antijoin(Term.compose(RecVar("X"), edge("a")), edge("b"))))
      var expected = label("a")
      var grown = true
      while (grown) {
        val next = expected ++ (bruteCompose(expected, label("a")) -- label("b"))
        grown = next != expected
        expected = next
      }
      assert(evalG(fix) == expected)
    }

    test(s"$name: constant subterm with no common columns (cartesian product)") {
      // π̃_d((X ∘ a) × ρ_src^d(π̃_trg(b))): X ∘ a while b has an edge
      val bSources = Rename("src", "d", AntiProj("trg", edge("b")))
      val fix = Fix("X", Union(edge("a"), AntiProj("d", Join(Term.compose(RecVar("X"), edge("a")), bSources))))
      assert(label("b").nonEmpty)
      assert(evalG(fix) == bruteClosure(label("a")))
    }

    test(s"$name: empty constant subterm (a label absent from G)") {
      val joined = Fix("X", Union(edge("a"), Term.compose(RecVar("X"), edge("c"))))
      assert(evalG(joined) == label("a"))
      val anti = Fix("X", Union(edge("a"), Antijoin(Term.compose(RecVar("X"), edge("a")), edge("c"))))
      assert(evalG(anti) == bruteClosure(label("a")))
    }

    test(s"$name: duplicate rows in the constant part and in a constant, no stable column") {
      // Every edge carries both labels, so a ∪ b evaluated as a bag holds
      // each pair twice; prepending and appending leaves no stable column.
      val pairs = randEdges(12, 30, seed = 13)
      val g = pairs.flatMap { case (s, o) => Set((s, "a", o), (s, "b", o)) }
      val ab = Union(edge("a"), edge("b"))
      val prepend = AntiProj("k1", Join(Rename("trg", "k1", ab), Rename("src", "k1", RecVar("Z"))))
      val append  = AntiProj("k2", Join(Rename("trg", "k2", RecVar("Z")), Rename("src", "k2", ab)))
      val fix = Fix("Z", Union(ab, Union(prepend, append)))
      assert(Stabilizer.stableCols(fix, TestGraphs.cat).isEmpty)
      val df = p.on(Map("G" -> p.input(labeledDf(spark, g)))).eval(fix)
      assert(toPairs(df) == bruteClosure(pairs))
      assert(df.count() == df.distinct().count())
    }

    test(s"$name: constant side that contains a fixpoint") {
      // μ(X = a ∪ X ∘ b+) = a ∘ (b+)*
      val fix = Fix("X", Union(edge("a"), Term.compose(RecVar("X"), Term.closure(edge("b"), "Y"))))
      assert(evalG(fix) == bruteFrom(label("a"), bruteClosure(label("b"))))
    }
  }

  // ------------------------------------------- P_gld's broadcast rule

  test("P_gld broadcasts a relation only when its size estimate is known and small") {
    val step = Term.unionAll(Analysis.decompose(closureE, TestGraphs.cat)._2)
    def broadcastLocal(df: DataFrame): Boolean = df.queryExecution.analyzed match {
      case ResolvedHint(_: LocalRelation, HintInfo(Some(BROADCAST))) => true
      case _ => false
    }
    val small = exec(PlanChoice.ForceGld).gldRels(step, Map.empty)("E")
    assert(broadcastLocal(small))
    assert(small.join(env("S"), Seq("src")).queryExecution.executedPlan.toString
      .contains("BroadcastHashJoin"))
    assert(toPairs(small) == paperE)
    // An uncached RDD has no size estimate: it is never collected.
    val unknown = edgeDf(spark, paperE)
    assert(new Executor(spark, Map("E" -> unknown), gld).gldRels(step, Map.empty)("E") eq unknown)
  }

  /** The runs that take the P_gld path, with broadcast and with shuffle
    * joins, over the uncached inputs `raw`.
    */
  private def gldRuns(raw: Map[String, DataFrame]): Seq[(String, Term => DataFrame)] = {
    val rels = raw.map { case (n, df) => n -> sized(df) }
    Seq(
      "P_gld" -> new Executor(spark, rels, gld).eval _,
      "P_gld (shuffle joins)" -> new Executor(spark, raw, gld).eval _,
      "Myria-lite" -> Engines.MyriaLite.engine(spark, rels, Map.empty, 4).run _)
  }

  test("same generation on a random tree: P_gld variants and Myria-lite match LocalEval") {
    val rnd = new scala.util.Random(3)
    val tree = (2 to 40).map(i => ((rnd.nextInt(i - 1) + 1).toLong, i.toLong)).toSet
    val expected = LocalEval.eval(MuRaTerms.sameGeneration, Map("R" -> rel(tree)))
    for ((name, run) <- gldRuns(Map("R" -> edgeDf(spark, tree)))) {
      val df = run(MuRaTerms.sameGeneration)
      assert(toPairs(df, "x", "y") == pairsOf(expected, "x", "y"), name)
    }
  }

  test("aⁿbⁿ on a labelled graph: P_gld variants and Myria-lite match LocalEval") {
    val g = randLabeled(12, 40, Seq("a", "b"), seed = 5)
    val expected = LocalEval.eval(MuRaTerms.anbn, Map("G" -> labeledRel(g)))
    assert(expected.rows.nonEmpty)
    for ((name, run) <- gldRuns(Map("G" -> labeledDf(spark, g)))) {
      assert(toPairs(run(MuRaTerms.anbn)) == asPairs(expected), name)
    }
  }
}
