package repro.exec

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.MuRaError

/** The RDBMS bridge on its own: what it loads it reads back unchanged. */
class DuckDbSpec extends AnyFunSuite {

  test("the bridge round-trips Long, Int, Double and String columns and names a type it cannot load") {
    val schema = StructType(Seq(
      StructField("l", LongType), StructField("i", IntegerType),
      StructField("d", DoubleType), StructField("s", StringType)))
    val rows = Seq(Seq(1L, 2, 0.5, "a"), Seq(-7L, 0, 3.25, "it's"))
    val (got, back) = DuckDb.withConnection { conn =>
      DuckDb.load(conn, "t", schema, rows)
      DuckDb.query(conn, "SELECT * FROM t ORDER BY l DESC")
    }
    assert(got == schema)
    assert(back == rows.map(Row.fromSeq))

    val e = intercept[MuRaError](DuckDb.withConnection { conn =>
      DuckDb.load(conn, "u", StructType(Seq(StructField("day", DateType))), Nil)
    })
    assert(e.getMessage.contains("DateType"))
  }
}
