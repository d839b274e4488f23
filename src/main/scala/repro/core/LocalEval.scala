package repro.core

import scala.collection.mutable

/** A small in-memory relation: a column ordering plus a set of rows.
  * Rows are `Vector[Any]` so they hash structurally (set semantics).
  */
final case class LocalRel(cols: Vector[String], rows: Vector[Vector[Any]]) {
  def colIdx(c: String): Int = {
    val i = cols.indexOf(c)
    if (i < 0) throw MuRaError(s"column $c not in $cols")
    i
  }

  /** Reorder rows to the given column ordering (same column set). */
  def aligned(order: Vector[String]): LocalRel =
    if (order == cols) this
    else {
      val idx = order.map(colIdx)
      LocalRel(order, rows.map(r => idx.map(r)))
    }

  def distinct: LocalRel = LocalRel(cols, rows.distinct)
  def isEmpty: Boolean = rows.isEmpty
  def size: Int = rows.size
}

object LocalRel {
  def empty(cols: Vector[String]): LocalRel = LocalRel(cols, Vector.empty)
}

/** Single-threaded semi-naive μ-RA evaluation over [[LocalRel]]s.
  *
  * This is the engine each worker runs in the `P_plw^s` physical plan:
  * joins against broadcast relations are hash joins, union/difference are
  * plain set operations on the partition-local set (the partition-wise
  * SetRDD semantics of Sec. IV-B), and fixpoints iterate Algorithm 1 on
  * the partition's own constant part. It doubles as the reference
  * evaluator in unit tests.
  */
object LocalEval {

  /** Join key values → the rows that carry them. */
  private type Index = Map[Vector[Any], Vector[Vector[Any]]]

  /** Evaluate a term. `env` binds base relations, `rec` bound recursive
    * variables. The result is deduplicated (set semantics).
    */
  def eval(t: Term, env: Map[String, LocalRel],
           rec: Map[String, LocalRel] = Map.empty,
           maxIters: Int = 1_000_000): LocalRel =
    new Eval(env, maxIters)(t, rec)

  /** An evaluator over fixed base relations `env`. The hash index of a
    * relation of `env` joined directly (`Rel(n) ⋈ …`, either side, or the
    * right side of `▷`) is built once per key and reused by every later
    * evaluation through this evaluator.
    */
  private final class Eval(env: Map[String, LocalRel], maxIters: Int) {
    private val indexes = mutable.HashMap.empty[(String, Vector[String]), Index]

    /** The cached index of `t` on a key, when `t` is a relation of `env`. */
    private def indexOf(t: Term): Option[Vector[String] => Index] = t match {
      case Rel(n) if env.contains(n) =>
        Some(key => indexes.getOrElseUpdate((n, key), index(env(n), key)))
      case _ => None
    }

    def apply(t: Term, rec: Map[String, LocalRel]): LocalRel = t match {
      case Rel(n) => env.getOrElse(n, throw MuRaError(s"unbound relation $n"))
      case RecVar(x) => rec.getOrElse(x, throw MuRaError(s"unbound recursive variable $x"))

      case Filter(EqConst(c, v), s) =>
        val r = apply(s, rec)
        val i = r.colIdx(c)
        LocalRel(r.cols, r.rows.filter(_(i) == v))

      case Filter(EqCols(a, b), s) =>
        val r = apply(s, rec)
        val ia = r.colIdx(a); val ib = r.colIdx(b)
        LocalRel(r.cols, r.rows.filter(row => row(ia) == row(ib)))

      case Join(l, r) =>
        join(apply(l, rec), apply(r, rec), indexOf(l), indexOf(r))

      case Antijoin(l, r) =>
        antijoin(apply(l, rec), apply(r, rec), indexOf(r))

      case Union(l, r) =>
        val lr = apply(l, rec)
        val rr = apply(r, rec).aligned(lr.cols)
        LocalRel(lr.cols, (lr.rows ++ rr.rows).distinct)

      case AntiProj(c, s) =>
        val r = apply(s, rec)
        val i = r.colIdx(c)
        LocalRel(r.cols.patch(i, Nil, 1), r.rows.map(row => row.patch(i, Nil, 1)).distinct)

      case Rename(f, to, s) =>
        val r = apply(s, rec)
        val i = r.colIdx(f)
        if (r.cols.contains(to)) throw MuRaError(s"rename target $to already present in ${r.cols}")
        LocalRel(r.cols.updated(i, to), r.rows)

      case Fix(x, body) =>
        val branches = Term.unionBranches(body)
        val (varB, constB) = branches.partition(_.usesRec(x))
        if (constB.isEmpty) throw MuRaError(s"fixpoint without constant part: ${t.pretty}")
        val r0 = constB.map(apply(_, rec)).reduceLeft { (a, b) =>
          LocalRel(a.cols, (a.rows ++ b.aligned(a.cols).rows).distinct)
        }
        if (varB.isEmpty) r0.distinct
        else fixpoint(x, r0.distinct, Term.unionAll(varB), env, rec, maxIters)
    }
  }

  /** Semi-naive loop (Algorithm 1 of the paper): apply φ to the new
    * tuples only, which is sound under F_cond by Proposition 1. φ's
    * maximal constant subterms are evaluated once, before the loop, and
    * each one's join index is built once, on first use.
    */
  def fixpoint(x: String, r0: LocalRel, phi: Term,
               env: Map[String, LocalRel], rec: Map[String, LocalRel],
               maxIters: Int): LocalRel = {
    val (step, consts) = Term.splitConstants(phi, x, "__const_")(_ => true)
    val outer = new Eval(env, maxIters)
    val stepEval = new Eval(consts.map { case (n, c) => n -> outer(c, rec) }.toMap, maxIters)
    val cols = r0.cols
    val total = mutable.LinkedHashSet.empty[Vector[Any]]
    total ++= r0.rows
    var delta = r0
    var iters = 0
    while (delta.rows.nonEmpty) {
      if (Thread.interrupted()) throw new InterruptedException("fixpoint cancelled")
      iters += 1
      if (iters > maxIters) throw MuRaError(s"fixpoint exceeded $maxIters iterations")
      val produced = stepEval(step, rec + (x -> delta)).aligned(cols)
      val fresh = produced.rows.filterNot(total.contains)
      total ++= fresh
      delta = LocalRel(cols, fresh)
    }
    LocalRel(cols, total.toVector)
  }

  /** `r`'s rows grouped by their values of the columns `key`. */
  private def index(r: LocalRel, key: Vector[String]): Index = {
    val k = key.map(r.colIdx)
    r.rows.groupBy(row => k.map(row))
  }

  /** Hash natural join; cartesian product when no common columns. It
    * probes the given index of the right side, or else of the left side,
    * on the common columns; with neither, it indexes the right side.
    */
  private def join(l: LocalRel, r: LocalRel,
                   lIndex: Option[Vector[String] => Index],
                   rIndex: Option[Vector[String] => Index]): LocalRel = {
    val common = l.cols.filter(r.cols.contains)
    val rExtraIdx = r.cols.zipWithIndex.collect { case (c, i) if !common.contains(c) => i }
    val outCols = l.cols ++ rExtraIdx.map(r.cols)
    val out =
      if (common.isEmpty) for (a <- l.rows; b <- r.rows) yield a ++ b
      else if (rIndex.nonEmpty || lIndex.isEmpty) {
        val lKey = common.map(l.colIdx)
        val idx = rIndex.fold(index(r, common))(_(common))
        for (a <- l.rows; b <- idx.getOrElse(lKey.map(a), Vector.empty)) yield a ++ rExtraIdx.map(b)
      } else {
        val rKey = common.map(r.colIdx)
        val idx = lIndex.get(common)
        for (b <- r.rows; a <- idx.getOrElse(rKey.map(b), Vector.empty)) yield a ++ rExtraIdx.map(b)
      }
    LocalRel(outCols, out)
  }

  /** Hash anti-join on common columns, probing the given index of the
    * right side if any; `l ▷ r = l` when r is empty and there are no
    * common columns, ∅ otherwise.
    */
  private def antijoin(l: LocalRel, r: LocalRel,
                       rIndex: Option[Vector[String] => Index]): LocalRel = {
    val common = l.cols.filter(r.cols.contains)
    if (common.isEmpty) {
      if (r.rows.isEmpty) l else LocalRel(l.cols, Vector.empty)
    } else {
      val lKey = common.map(l.colIdx)
      val keys = rIndex.fold(index(r, common))(_(common))
      LocalRel(l.cols, l.rows.filterNot(a => keys.contains(lKey.map(a))))
    }
  }
}
