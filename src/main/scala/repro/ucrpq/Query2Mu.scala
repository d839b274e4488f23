package repro.ucrpq

import repro.core._

/** The Query2Mu component (Sec. III): translates a UCRPQ into a μ-RA
  * term over a single edge relation `G(src, pred, trg)`.
  *
  *  - a label `a` is `π̃_pred(σ_{pred=a}(G))`, a binary relation (src, trg);
  *  - `-a` swaps src and trg;
  *  - `p1/p2` is the composition `π̃_m(ρ_trg^m(t1) ⋈ ρ_src^m(t2))`;
  *  - `(p1|p2)` is a union;
  *  - `p+` is the fixpoint `μ(X = t ∪ π̃_m(ρ_trg^m(X) ⋈ ρ_src^m(t)))`;
  *  - a conjunct renames (src, trg) to its variable names (constants
  *    become filters followed by anti-projections);
  *  - the conjunction is a natural join on shared variables, and the
  *    head projects away the non-head variables.
  *
  * Constants are resolved to node ids through `constants`.
  */
object Query2Mu {

  val GraphRel = "G"
  val graphSchema: Set[String] = Set(Cols.src, Cols.pred, Cols.trg)

  private val reserved = Set(Cols.src, Cols.pred, Cols.trg)

  def edge(label: String): Term =
    AntiProj(Cols.pred, Filter(EqConst(Cols.pred, label), Rel(GraphRel)))

  /** The term of path `p`. Its recursive variables are X1, X2, … in
    * translation order, skipping those in `bound`.
    */
  def pathTerm(p: Path, bound: Set[String] = Set.empty): Term = p match {
    case Label(l)    => edge(l)
    case Inv(l)      => Term.inverse(edge(l))
    case Concat(ps)  => inSequence(ps, bound)(pathTerm).reduceLeft(Term.compose(_, _))
    case Alt(ps)     => Term.unionAll(inSequence(ps, bound)(pathTerm))
    case Plus(inner) =>
      val t = pathTerm(inner, bound)
      Term.closure(t, Fresh.recVar(bound ++ t.recVarNames))
  }

  /** Translate `xs` left to right, each avoiding the recursive variables
    * of `bound` and of the terms before it, so that a query's fixpoints get
    * distinct names that depend on the query alone.
    */
  private def inSequence[A](xs: Seq[A], bound: Set[String])
                           (translate: (A, Set[String]) => Term): List[Term] =
    xs.foldLeft((List.empty[Term], bound)) { case ((acc, b), a) =>
      val t = translate(a, b)
      (t :: acc, b ++ t.recVarNames)
    }._1.reverse

  /** Translate one conjunct to a term whose sort is its variable set. */
  def conjunctTerm(c: Conjunct, constants: Map[String, Any], bound: Set[String] = Set.empty): Term = {
    def constVal(n: String): Any =
      constants.getOrElse(n, throw MuRaError(s"unknown constant '$n' (not in the dataset dictionary)"))
    val base = pathTerm(c.path, bound)
    (c.left, c.right) match {
      case (QVar(a), QVar(b)) if a == b =>
        require(!reserved(a), s"variable name '$a' is reserved")
        Rename(Cols.src, a, AntiProj(Cols.trg, Filter(EqCols(Cols.src, Cols.trg), base)))
      case (QVar(a), QVar(b)) =>
        require(!reserved(a) && !reserved(b), s"variable names '$a'/'$b' are reserved")
        Rename(Cols.trg, b, Rename(Cols.src, a, base))
      case (QConst(k), QVar(b)) =>
        require(!reserved(b), s"variable name '$b' is reserved")
        Rename(Cols.trg, b, AntiProj(Cols.src, Filter(EqConst(Cols.src, constVal(k)), base)))
      case (QVar(a), QConst(k)) =>
        require(!reserved(a), s"variable name '$a' is reserved")
        Rename(Cols.src, a, AntiProj(Cols.trg, Filter(EqConst(Cols.trg, constVal(k)), base)))
      case (QConst(_), QConst(_)) =>
        throw MuRaError("conjuncts with two constants are not supported (boolean queries)")
    }
  }

  /** Translate a full query. The resulting term's sort is exactly the
    * head variable set.
    */
  def translate(q: Query, constants: Map[String, Any]): Term = {
    require(q.conjuncts.nonEmpty, "empty query body")
    val body = inSequence(q.conjuncts, Set.empty)(conjunctTerm(_, constants, _)).reduceLeft(Join(_, _))
    val bodyVars: Set[String] = q.conjuncts.flatMap { c =>
      Seq(c.left, c.right).collect { case QVar(v) => v }
    }.toSet
    val heads = q.heads.toSet
    val missing = heads -- bodyVars
    if (missing.nonEmpty) throw MuRaError(s"head variables $missing not bound in body")
    Term.antiProjAll((bodyVars -- heads).toSeq.sorted, body)
  }

  def translate(query: String, constants: Map[String, Any]): Term =
    translate(UcrpqParser.parse(query), constants)
}
