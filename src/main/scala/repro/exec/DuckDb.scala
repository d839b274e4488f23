package repro.exec

import java.sql.{Connection, DriverManager, ResultSet}
import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.core.MuRaError

/** The one bridge to the RDBMS: an in-process DuckDB standing in for the
  * paper's PostgreSQL (DESIGN.md §2). `P_plw^pg`'s local loop, the
  * Centralized μ-RA baseline and the test oracle all open, load and read
  * their databases here.
  */
object DuckDb {

  /** Run `f` on a fresh in-memory database, closed afterwards. */
  def withConnection[A](f: Connection => A): A = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try f(conn) finally conn.close()
  }

  /** The table that holds relation `rel`. */
  def table(rel: String): String = s"rel_${rel.replaceAll("[^A-Za-z0-9_]", "_")}"

  private def duckType(dt: DataType): String = dt match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case StringType  => "VARCHAR"
    case BooleanType => "BOOLEAN"
    case other       => throw MuRaError(s"unsupported type for RDBMS backend: $other")
  }

  /** The Spark type a result column of DuckDB type `name` decodes to. */
  private def sparkType(name: String): DataType = name.toUpperCase match {
    case "BIGINT" | "HUGEINT"       => LongType
    case "INTEGER" | "INT" | "INT4" => IntegerType
    case "DOUBLE"                   => DoubleType
    case _                          => StringType
  }

  /** Create `name` with `schema`'s columns and insert `rows` in one batch. */
  def load(conn: Connection, name: String, schema: StructType, rows: Iterable[Seq[Any]]): Unit = {
    val ddl = schema.fields.map(f => s""""${f.name}" ${duckType(f.dataType)}""").mkString(", ")
    conn.createStatement.execute(s"CREATE TABLE $name ($ddl)")
    val ps = conn.prepareStatement(
      s"INSERT INTO $name VALUES (${schema.fields.map(_ => "?").mkString(",")})")
    rows.foreach { r =>
      r.indices.foreach(i => ps.setObject(i + 1, r(i)))
      ps.addBatch()
    }
    ps.executeBatch(); ps.close()
  }

  /** A JDBC value as the Spark type `dt` holds it. */
  private def decode(dt: DataType, v: AnyRef): Any = (dt, v) match {
    case (_, null)                => null
    case (LongType, n: Number)    => n.longValue()
    case (IntegerType, n: Number) => n.intValue()
    case (DoubleType, n: Number)  => n.doubleValue()
    case (StringType, s)          => s.toString
    case (_, other)               => other
  }

  /** Every row of `sql`, decoded to `types`, one per result column. */
  def query(conn: Connection, sql: String, types: Seq[DataType]): Vector[Row] =
    readAll(conn.createStatement.executeQuery(sql), types)

  /** Every row of `sql` and their schema, read from the result's metadata. */
  def query(conn: Connection, sql: String): (StructType, Vector[Row]) = {
    val rs = conn.createStatement.executeQuery(sql)
    val meta = rs.getMetaData
    val schema = StructType((1 to meta.getColumnCount).map { i =>
      StructField(meta.getColumnLabel(i), sparkType(meta.getColumnTypeName(i)))
    })
    (schema, readAll(rs, schema.fields.map(_.dataType).toSeq))
  }

  private def readAll(rs: ResultSet, types: Seq[DataType]): Vector[Row] = {
    val buf = Vector.newBuilder[Row]
    while (rs.next()) buf += Row.fromSeq(types.indices.map(i => decode(types(i), rs.getObject(i + 1))))
    buf.result()
  }
}
