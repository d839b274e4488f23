package repro.exec

import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.TestGraphs._
import repro.ucrpq.Query2Mu

/** The worker-local loop of `P_plw^s` ([[LocalEval.fixpoint]], with its
  * hoisted constants and cached indexes) against an implementation that
  * shares none of its code: DuckDB's `WITH RECURSIVE` over the query
  * [[SqlGen.localFixpointQuery]] builds for `P_plw^pg`.
  */
class LocalLoopSpec extends AnyFunSuite {

  private val labels = Seq("a", "b", "c", "d")

  private val tripleSchema = StructType(Seq(
    StructField(Cols.src, LongType), StructField(Cols.pred, StringType), StructField(Cols.trg, LongType)))
  private val pairSchema = StructType(Seq(StructField(Cols.src, LongType), StructField(Cols.trg, LongType)))

  /** A random labelled graph, 2–4 of its labels, and which of two
    * partitions (by `src` parity) to run the loop on.
    */
  private val genCase = for {
    n <- Gen.choose(4, 12)
    m <- Gen.choose(3, 30)
    seed <- Gen.choose(0L, 100000L)
    k <- Gen.choose(2, 4)
    closed <- Gen.pick(k, labels)
    parity <- Gen.choose(0, 1)
  } yield (randLabeled(n, m, labels, seed), closed.toSeq.sorted, parity)

  test("LocalEval.fixpoint equals DuckDB's recursive CTE on a closure of a union of labels") {
    val prop = Prop.forAll(genCase) { case (g, closed, parity) =>
      // The Q21 shape: (l1 | … | lk)+.
      val fix = Term.closure(Term.unionAll(closed.map(Query2Mu.edge)), "X").asInstanceOf[Fix]
      val phi = Analysis.decompose(fix, cat)._2
      // One partition's slice of the constant part.
      val slice = g.toVector.collect {
        case (s, p, t) if closed.contains(p) && s % 2 == parity => Vector[Any](s, t)
      }.distinct
      val cols = Vector(Cols.src, Cols.trg)
      val local = asPairs(LocalEval.fixpoint("X", LocalRel(cols, slice), Term.unionAll(phi),
        Map(Query2Mu.GraphRel -> labeledRel(g)), Map.empty, 1000))
      val gen = new SqlGen(Map(Query2Mu.GraphRel -> DuckDb.table(Query2Mu.GraphRel)),
        Map(Query2Mu.GraphRel -> tripleSchema.fieldNames.toSeq))
      val sql = gen.localFixpointQuery(phi, "X", "part_r", cols)
      val duck = DuckDb.withConnection { conn =>
        DuckDb.load(conn, DuckDb.table(Query2Mu.GraphRel), tripleSchema,
          g.toSeq.map { case (s, p, t) => Seq(s, p, t) })
        DuckDb.load(conn, "part_r", pairSchema, slice)
        DuckDb.query(conn, sql, Seq(LongType, LongType))
      }.map(r => (r.getLong(0), r.getLong(1))).toSet
      (local == duck) :| s"labels $closed, parity $parity: local $local, DuckDB $duck"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }
}
