package repro.linalg

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable
import scala.reflect.ClassTag

/** One partition of a [[Csr]] matrix: its rows in ascending id order, and
  * each row's entries in ascending column order. Row `r` owns the entries
  * `rowPtr(r) until rowPtr(r + 1)` of `cols` / `vals`.
  */
final case class CsrPart(rowIds: Array[Long], rowPtr: Array[Int],
                         cols: Array[Int], vals: Array[Double]) {

  def numRows: Int = rowIds.length

  /** Row `r` of `A y`: `Σ_e vals(e) · y(cols(e))`. */
  def rowTimes(r: Int, y: Local.Mat): Array[Double] = {
    val out = new Array[Double](y(0).length)
    var e = rowPtr(r)
    while (e < rowPtr(r + 1)) {
      val w = vals(e); val yRow = y(cols(e))
      var j = 0
      while (j < out.length) { out(j) += w * yRow(j); j += 1 }
      e += 1
    }
    out
  }

  /** Adds row `r`'s share of `Aᵀ x` to `acc`: `acc(cols(e)) += vals(e) · x`. */
  def addRowTransposed(r: Int, x: Array[Double], acc: Local.Mat): Unit = {
    var e = rowPtr(r)
    while (e < rowPtr(r + 1)) {
      val w = vals(e); val accRow = acc(cols(e))
      var j = 0
      while (j < x.length) { accRow(j) += w * x(j); j += 1 }
      e += 1
    }
  }

  /** Entry `(r, c)` divided by `rowSum(r)^rowPow`, then times `colScale(c)`;
    * a row whose sum is 0 stays 0.
    */
  def scaled(rowPow: Double, colScale: Array[Double]): CsrPart = {
    val out = new Array[Double](vals.length)
    var r = 0
    while (r < numRows) {
      var sum = 0.0
      var e = rowPtr(r)
      while (e < rowPtr(r + 1)) { sum += vals(e); e += 1 }
      val rs = Csr.inversePow(sum, rowPow)
      e = rowPtr(r)
      while (e < rowPtr(r + 1)) { out(e) = vals(e) * rs * colScale(cols(e)); e += 1 }
      r += 1
    }
    CsrPart(rowIds, rowPtr, cols, out)
  }
}

/** A sparse matrix whose rows are spread over Spark partitions, one
  * [[CsrPart]] per partition, and whose columns are indexed on the driver
  * through the sorted id array `colIds`.
  *
  * Dense factors over the columns are driver-held `Local.Mat`s with one row
  * per column id (`y(c)` belongs to `colIds(c)`). Every kernel below is one
  * Spark pass. A reduction returns one partial per partition and sums them
  * on the driver in partition order; as the row layout depends only on the
  * row ids and the core count, a fixed seed gives bit-identical results.
  *
  * Memory: a reduction over a |cols|×w factor holds |cols|·w·8 bytes per
  * partition plus the factor and the sum on the driver.
  */
final class Csr private (val parts: RDD[CsrPart], val colIds: Array[Long]) {

  def nCols: Int = colIds.length

  private def sc = parts.sparkContext

  /** `f` on every partition in one job; results in partition order. */
  private def perPartition[R: ClassTag](f: CsrPart => R): Array[R] = parts.map(f).collect()

  /** Column sums `1ᵀ A` (the weighted degrees of the column vertices). */
  def colSums(): Array[Double] = {
    val n = nCols
    perPartition { p =>
      val acc = new Array[Double](n)
      var e = 0
      while (e < p.cols.length) { acc(p.cols(e)) += p.vals(e); e += 1 }
      acc
    }.reduceLeft(Local.addInPlace)
  }

  /** `D_r^{-rowPow} A D_c^{-colPow}` with `D_r`, `D_c` the row and column
    * sums of this matrix, e.g. `(1, 0)` gives the transition matrix P and
    * `(½, ½)` gives Qᵀ (Table 1). Zero-sum rows and columns stay zero. The
    * result is cached; only a non-zero `colPow` costs a pass.
    */
  def normalized(rowPow: Double, colPow: Double): Csr = {
    val colScale =
      if (colPow == 0.0) Array.fill(nCols)(1.0)
      else colSums().map(Csr.inversePow(_, colPow))
    val bc = sc.broadcast(colScale)
    new Csr(parts.map(_.scaled(rowPow, bc.value)).persist(StorageLevel.MEMORY_AND_DISK), colIds)
  }

  /** `Aᵀ (A y)` for a driver-held `y` (|cols|×w), in one pass: each row
    * computes its entry of `A y` and scatters it back through `Aᵀ`.
    */
  def gramTimes(y: Local.Mat): Local.Mat = {
    val bc = sc.broadcast(y)
    val n = nCols
    val out = perPartition { p =>
      val yv = bc.value
      val acc = Local.zeros(n, yv(0).length)
      var r = 0
      while (r < p.numRows) { p.addRowTransposed(r, p.rowTimes(r, yv), acc); r += 1 }
      acc
    }.reduceLeft(Local.addMatInPlace)
    bc.destroy()
    out
  }

  /** Rows of `A y` keyed by row id; map-only and lazy. */
  def times(y: Local.Mat): RDD[BRow] = {
    val bc = sc.broadcast(y)
    parts.flatMap(p => Iterator.tabulate(p.numRows)(r => BRow(p.rowIds(r), p.rowTimes(r, bc.value))))
  }

  /** `A y` on the driver, indexed like the columns, for a matrix whose row
    * ids are all column ids (a square operator such as a symmetric
    * adjacency). Columns without a row get a zero row.
    */
  def squareTimes(y: Local.Mat): Local.Mat = {
    val bc = sc.broadcast(y)
    val out = Local.zeros(nCols, y(0).length)
    perPartition(p => (p.rowIds, Array.tabulate(p.numRows)(p.rowTimes(_, bc.value)))).foreach {
      case (ids, rows) =>
        var r = 0
        while (r < ids.length) {
          val c = java.util.Arrays.binarySearch(colIds, ids(r))
          require(c >= 0, s"row ${ids(r)} is not a column of a square operator")
          out(c) = rows(r)
          r += 1
        }
    }
    bc.destroy()
    out
  }

  def unpersist(): Unit = parts.unpersist(blocking = false)
}

object Csr {

  private[linalg] def inversePow(d: Double, p: Double): Double =
    if (p == 0.0) 1.0 else if (d > 0.0) math.pow(d, -p) else 0.0

  /** Builds the biadjacency matrix of a weighted graph, with one row per
    * distinct `rows` id and one column per distinct `cols` id from an edge
    * DataFrame, and `weight` as the entry. Duplicate `(row, col)` pairs are
    * summed, which is the same linear operator. A null id or a weight that
    * is negative, NaN or infinite fails with an `IllegalArgumentException`
    * naming the edge.
    *
    * Rows are hashed by id into one partition per core, so the layout does
    * not depend on how `edges` is partitioned. One pass collects the column
    * ids and checks the edges; the rows are then shuffled once and cached.
    */
  def apply(edges: DataFrame, rows: String, cols: String, weight: String): Csr =
    build(edges, rows, cols, weight, nonNegative = true)

  /** As [[apply]], for a general sparse matrix: entries may be negative. */
  def signed(edges: DataFrame, rows: String, cols: String, weight: String): Csr =
    build(edges, rows, cols, weight, nonNegative = false)

  private def build(edges: DataFrame, rows: String, cols: String, weight: String,
                    nonNegative: Boolean): Csr = {
    val sc = edges.sparkSession.sparkContext
    val triples = edges.select(col(rows).cast("long"), col(cols).cast("long"), col(weight).cast("double")).rdd

    val scanned = triples.mapPartitions { it =>
      val ids = mutable.HashSet.empty[Long]
      var bad: Option[String] = None
      it.foreach { t =>
        val ok = !t.isNullAt(0) && !t.isNullAt(1) && !t.isNullAt(2) && {
          val w = t.getDouble(2); !w.isNaN && !w.isInfinite && (w >= 0.0 || !nonNegative)
        }
        if (!ok && bad.isEmpty) bad = Some(s"($rows, $cols, $weight) = (${t.get(0)}, ${t.get(1)}, ${t.get(2)})")
        if (ok) ids += t.getLong(1)
      }
      Iterator.single((ids.toArray, bad))
    }.collect()
    scanned.flatMap(_._2).headOption.foreach { e =>
      throw new IllegalArgumentException(s"invalid edge $e: ids must be non-null and weights finite" +
        (if (nonNegative) " and non-negative" else ""))
    }
    val colIds = scanned.flatMap(_._1).distinct.sorted
    val bcCols = sc.broadcast(colIds)

    val parts = triples
      .map(t => (t.getLong(0), (java.util.Arrays.binarySearch(bcCols.value, t.getLong(1)), t.getDouble(2))))
      .partitionBy(new HashPartitioner(sc.defaultParallelism))
      .mapPartitions(it => Iterator.single(pack(it.toArray)), preservesPartitioning = true)
      .persist(StorageLevel.MEMORY_AND_DISK)
    new Csr(parts, colIds)
  }

  /** Sorts a partition's `(row, (col, w))` entries by row, column and weight
    * (so that duplicates are summed in a fixed order) and packs them.
    */
  private def pack(entries: Array[(Long, (Int, Double))]): CsrPart = {
    java.util.Arrays.sort(entries, EntryOrder)
    val rowIds = mutable.ArrayBuilder.make[Long]
    val rowPtr = mutable.ArrayBuilder.make[Int]
    val cols = new Array[Int](entries.length)
    val vals = new Array[Double](entries.length)
    var n = 0
    var i = 0
    while (i < entries.length) {
      val (r, (c, w)) = entries(i)
      val newRow = i == 0 || r != entries(i - 1)._1
      if (newRow) { rowIds += r; rowPtr += n }
      if (!newRow && cols(n - 1) == c) vals(n - 1) += w
      else { cols(n) = c; vals(n) = w; n += 1 }
      i += 1
    }
    rowPtr += n
    CsrPart(rowIds.result(), rowPtr.result(), cols.take(n), vals.take(n))
  }

  private object EntryOrder extends java.util.Comparator[(Long, (Int, Double))] {
    def compare(a: (Long, (Int, Double)), b: (Long, (Int, Double))): Int = {
      val byRow = java.lang.Long.compare(a._1, b._1)
      if (byRow != 0) byRow
      else {
        val byCol = Integer.compare(a._2._1, b._2._1)
        if (byCol != 0) byCol else java.lang.Double.compare(a._2._2, b._2._2)
      }
    }
  }
}
