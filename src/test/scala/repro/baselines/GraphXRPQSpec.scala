package repro.baselines

import repro.SparkSpec
import repro.SparkTestData._
import repro.core.MuRaError
import repro.core.TestGraphs.{bruteClosure, bruteCompose, randLabeled}
import repro.ucrpq._

/** The GraphX Pregel baseline: NFA construction and RPQ evaluation. */
class GraphXRPQSpec extends SparkSpec {

  // ------------------------------------------------------------- NFA

  private def accepts(nfa: GraphXRPQ.Nfa, word: Seq[String]): Boolean = {
    var states = nfa.startStates
    word.foreach { l => states = states.flatMap(s => nfa.trans.getOrElse((s, l), Set.empty)) }
    (states intersect nfa.acceptStates).nonEmpty
  }

  test("NFA for a single label") {
    val n = GraphXRPQ.buildNfa(Label("a"))
    assert(accepts(n, Seq("a")))
    assert(!accepts(n, Seq("b")))
    assert(!accepts(n, Seq.empty))
    assert(!accepts(n, Seq("a", "a")))
  }

  test("NFA for concatenation and inverse") {
    val n = GraphXRPQ.buildNfa(Concat(List(Label("a"), Inv("b"))))
    assert(accepts(n, Seq("a", "-b")))
    assert(!accepts(n, Seq("a", "b")))
  }

  test("NFA for alternation") {
    val n = GraphXRPQ.buildNfa(Alt(List(Label("a"), Label("b"))))
    assert(accepts(n, Seq("a")) && accepts(n, Seq("b")))
    assert(!accepts(n, Seq("c")))
  }

  test("NFA for plus: one or more, not zero") {
    val n = GraphXRPQ.buildNfa(Plus(Label("a")))
    assert(!accepts(n, Seq.empty))
    assert(accepts(n, Seq("a")) && accepts(n, Seq("a", "a", "a")))
    assert(!accepts(n, Seq("a", "b")))
  }

  test("NFA for nested closure of a concatenation") {
    val n = GraphXRPQ.buildNfa(Plus(Concat(List(Label("a"), Label("b")))))
    assert(accepts(n, Seq("a", "b")))
    assert(accepts(n, Seq("a", "b", "a", "b")))
    assert(!accepts(n, Seq("a")) && !accepts(n, Seq("a", "b", "a")))
  }

  // ----------------------------------------------------------- Pregel

  private val g: Set[(Long, String, Long)] = randLabeled(12, 30, Seq("a", "b"), seed = 21)
  private lazy val gDf = labeledDf(spark, g)
  private def label(l: String) = g.collect { case (s, p, t) if p == l => (s, t) }

  test("rpqPairs: a+ equals brute closure") {
    val df = GraphXRPQ.rpqPairs(spark, gDf, Plus(Label("a")), anchorLeft = None)
    assert(toPairs(df) == bruteClosure(label("a")))
  }

  test("rpqPairs: anchored traversal only explores from the anchor") {
    val anchor = label("a").head._1
    val df = GraphXRPQ.rpqPairs(spark, gDf, Plus(Label("a")), anchorLeft = Some(anchor))
    assert(toPairs(df) == bruteClosure(label("a")).filter(_._1 == anchor))
  }

  test("rpqPairs: inverse edges traverse backwards") {
    val df = GraphXRPQ.rpqPairs(spark, gDf, Inv("a"), anchorLeft = None)
    assert(toPairs(df) == label("a").map(_.swap))
  }

  test("rpqPairs: concatenation a+/b") {
    val df = GraphXRPQ.rpqPairs(spark, gDf, Concat(List(Plus(Label("a")), Label("b"))), None)
    assert(toPairs(df) == bruteCompose(bruteClosure(label("a")), label("b")))
  }

  test("superstep cap halts runaway traversals") {
    val df = GraphXRPQ.rpqPairs(spark, gDf, Plus(Label("a")), None, maxSupersteps = 1)
    // With one superstep only single a-edges can be matched.
    assert(toPairs(df).subsetOf(bruteClosure(label("a"))))
  }

  test("runQuery names a constant that is not a Long node id") {
    val err = intercept[MuRaError](GraphXRPQ.runQuery(spark, gDf, "?x <- C a+ ?x", Map("C" -> "1")))
    assert(err.getMessage.contains("'C'") && err.getMessage.contains("String"))
  }
}
