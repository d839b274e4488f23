package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.Term
import repro.graphdata.GraphData
import repro.queries.{MuRaTerms, PaperQueries}
import repro.ucrpq.Query2Mu

/** One query of a workload: a UCRPQ, which the program translates, or a
  * μ-RA term given directly. It runs on the engine built for `dataset`.
  */
final case class BenchQuery(id: String, dataset: String, ucrpq: Option[String], term: Option[Term])

/** A generated input: exactly what the engine is given. */
final case class Dataset(catalog: Map[String, DataFrame], constants: Map[String, Any])

final case class Workload(name: String, queries: Seq[BenchQuery],
                          generate: (SparkSession, Long) => Map[String, Dataset])

/** The benchmark's workloads. Sizes are fixed here; only the seed,
  * a command-line argument, changes the generated graphs. NOTES.md says
  * why each workload exists and which path of the program it drives.
  */
object Workloads {

  val YagoScale = 0.5
  val UniprotEdges = 8000L
  val ForestTrees = 32
  val TreeNodes = 30
  val ForkDepth = 7

  /** A run must fit several whole passes into about a minute, so a pass
    * is a fixed subset of the paper's list (NOTES.md says why these).
    */
  val YagoQueries = Seq("Q13", "Q19", "Q21")
  val UniprotQueries = Seq("Q31", "Q33", "Q34", "Q36", "Q43")

  private def cached(df: DataFrame): DataFrame = { df.cache(); df.count(); df }

  /** `ForestTrees` random trees with disjoint node ids, plus a fixed fork:
    * a root with two paths of `ForkDepth` nodes. Same generation iterates
    * once per level of the deepest fork, which differs by a level between
    * random forests, and a level is about a fifth of the run time. No
    * random tree of this size forked deeper than `ForkDepth` in 200
    * seeds, so the fixed fork makes the iteration count the same for
    * every seed (NOTES.md).
    */
  private def forest(spark: SparkSession, seed: Long): DataFrame = {
    val trees = (0 until ForestTrees).map(i => GraphData.randomTree(spark, TreeNodes, seed * ForestTrees + i))
    val rows = trees.zipWithIndex.map { case (t, i) =>
      val off = i.toLong * TreeNodes
      t.rdd.map(r => Row(r.getLong(0) + off, r.getLong(1) + off))
    }
    val root = ForestTrees.toLong * TreeNodes + 1
    val fork = Seq(0L, ForkDepth.toLong).flatMap { off =>
      (1 to ForkDepth).map(k => Row(if (k == 1) root else root + off + k - 1, root + off + k))
    }
    val all = spark.sparkContext.union(rows :+ spark.sparkContext.parallelize(fork, 1))
    spark.createDataFrame(all.coalesce(16), trees.head.schema)
  }

  private def ucrpqs(dataset: String, qs: Seq[PaperQueries.Q], ids: Seq[String]): Seq[BenchQuery] =
    ids.map(id => qs.find(_.id == id).get).map(q => BenchQuery(q.id, dataset, Some(q.query), None))

  val yago: Workload = Workload("yago", ucrpqs("yago", PaperQueries.yago, YagoQueries), { (spark, seed) =>
    val g = GraphData.yagoLite(spark, YagoScale, seed)
    Map("yago" -> Dataset(Map(Query2Mu.GraphRel -> cached(g.edges)), g.constants))
  })

  val uniprot: Workload = Workload("uniprot", ucrpqs("uniprot", PaperQueries.uniprot, UniprotQueries), { (spark, seed) =>
    val g = GraphData.uniprotLite(spark, UniprotEdges, seed)
    Map("uniprot" -> Dataset(Map(Query2Mu.GraphRel -> cached(g.edges)), g.constants))
  })

  val muGld: Workload = Workload("mu_gld", Seq(
    BenchQuery("same_generation", "forest", None, Some(MuRaTerms.sameGeneration)),
  ), { (spark, seed) =>
    Map("forest" -> Dataset(Map("R" -> cached(forest(spark, seed))), Map.empty))
  })

  val all: Seq[Workload] = Seq(yago, uniprot, muGld)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}
