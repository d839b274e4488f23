package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestGraphs._

/** The generic traversals over [[Term]] and the fresh-name supply. */
class TermSpec extends AnyFunSuite {

  private val inner = Term.closure(Rel("E"), "Y")

  /** φ = π̃_c(ρ_trg^c(X) ⋈ ρ_src^c(E+)) ∪ (X ▷ S). */
  private val phi = Union(
    AntiProj("c", Join(Rename("trg", "c", RecVar("X")), Rename("src", "c", inner))),
    Antijoin(RecVar("X"), Rel("S")))

  test("splitConstants replaces each maximal constant subterm, left to right") {
    val (step, consts) = Term.splitConstants(phi, "X", "k_")(_ => true)
    assert(consts == List("k_0" -> Rename("src", "c", inner), "k_1" -> Rel("S")))
    assert(step == Union(
      AntiProj("c", Join(Rename("trg", "c", RecVar("X")), Rel("k_0"))),
      Antijoin(RecVar("X"), Rel("k_1"))))
    val env = Map("E" -> rel(paperE), "S" -> rel(paperS))
    val x = Map("X" -> rel(paperS))
    val bound = env ++ consts.map { case (n, t) => n -> LocalEval.eval(t, env) }
    assert(asPairs(LocalEval.eval(step, bound, x)) == asPairs(LocalEval.eval(phi, env, x)))
  }

  test("splitConstants with a predicate keeps the constants it rejects") {
    val (step, consts) = Term.splitConstants(phi, "X", "h_")(_.exists(_.isInstanceOf[Fix]))
    assert(consts == List("h_0" -> Rename("src", "c", inner)))
    assert(step.freeRels == Set("h_0", "S"))
  }

  test("recVarNames and Fresh.recVar") {
    val nested = Term.closure(Term.closure(Rel("E")))
    assert(nested.recVarNames == Set("X1", "X2"))
    assert(Fresh.recVar(Set("X1", "X3")) == "X2")
    assert(phi.recVarNames == Set("X", "Y"))
  }
}
