package repro.linalg

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** A row of a distributed dense row-block matrix: vertex id → length-β vector. */
final case class BRow(id: Long, vec: Array[Double])

/** Distributed dense-block kernels over `Dataset[BRow]`: the U-side
  * factors (the embedding X and HOPE+'s L) and the glue between driver-held
  * factors and Datasets. Sparse products live in [[Csr]]. Every reduction
  * sums one partial per partition on the driver, in partition order, so a
  * fixed seed gives bit-identical results.
  */
object Block {

  /** Reshape a flat row-major accumulator into a Mat. */
  private def unflatten(flat: Array[Double], cols: Int): Local.Mat =
    flat.grouped(cols).toArray

  /** Gram matrix `XᵀX` collected to the driver (β×β). */
  def gram(x: Dataset[BRow]): Local.Mat = {
    val spark = x.sparkSession
    import spark.implicits._
    val flat = x.mapPartitions { it =>
      var acc: Array[Double] = null
      var dim = 0
      it.foreach { r =>
        val v = r.vec
        if (acc == null) { dim = v.length; acc = new Array[Double](dim * dim) }
        var i = 0
        while (i < dim) {
          val vi = v(i)
          if (vi != 0.0) {
            val base = i * dim
            var j = 0
            while (j < dim) { acc(base + j) += vi * v(j); j += 1 }
          }
          i += 1
        }
      }
      if (acc == null) Iterator.empty else Iterator.single(acc)
    }.collect().reduceLeft(Local.addInPlace)
    unflatten(flat, math.sqrt(flat.length.toDouble).round.toInt)
  }

  /** Pair Gram `XᵀY` (inner join on id) collected to the driver (β_x × β_y). */
  def pairGram(x: Dataset[BRow], y: Dataset[BRow]): Local.Mat = {
    val spark = x.sparkSession
    import spark.implicits._
    var yCols = -1
    val flat = x.toDF("id", "xvec").join(y.toDF("id", "yvec"), "id")
      .select($"xvec", $"yvec").as[(Array[Double], Array[Double])]
      .mapPartitions { it =>
        var acc: Array[Double] = null
        var rows = 0; var cols = 0
        it.foreach { case (xv, yv) =>
          if (acc == null) { rows = xv.length; cols = yv.length; acc = new Array[Double](rows * cols + 1) }
          var i = 0
          while (i < rows) {
            val xi = xv(i)
            if (xi != 0.0) {
              val base = i * cols
              var j = 0
              while (j < cols) { acc(base + j) += xi * yv(j); j += 1 }
            }
            i += 1
          }
          acc(rows * cols) = cols.toDouble // carry cols for driver reshape
        }
        if (acc == null) Iterator.empty else Iterator.single(acc)
      }.collect().reduceLeft { (a, b) =>
        var i = 0
        while (i < a.length - 1) { a(i) += b(i); i += 1 }
        a
      }
    yCols = flat.last.round.toInt
    unflatten(flat.dropRight(1), yCols)
  }

  /** Right-multiply every row by a local matrix: `out_i = x_i · M`. */
  def timesLocal(x: Dataset[BRow], m: Local.Mat): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(m)
    x.map(r => BRow(r.id, Local.vecMat(r.vec, bc.value)))
  }

  /** Scale column j of every row by `d(j)`. */
  def scaleCols(x: Dataset[BRow], d: Array[Double]): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(d)
    x.map { r =>
      val f = bc.value
      val out = new Array[Double](r.vec.length)
      var i = 0
      while (i < out.length) { out(i) = r.vec(i) * f(i); i += 1 }
      BRow(r.id, out)
    }
  }

  /** L2-normalise every row; zero rows are left as zeros. */
  def normalizeRows(x: Dataset[BRow]): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    x.map(r => BRow(r.id, Local.unit(r.vec)))
  }

  /** Deterministic gaussian block over `ids` (column "id"). */
  def gaussianBlock(ids: DataFrame, dim: Int, seed: Long): Dataset[BRow] = {
    val spark = ids.sparkSession
    import spark.implicits._
    ids.select(col("id").cast("long")).as[Long]
      .map(id => BRow(id, Local.gaussianVec(seed, id, dim)))
  }

  /** Deterministic ±1/√dim Rademacher block over `ids` (column "id"). */
  def rademacherBlock(ids: DataFrame, dim: Int, seed: Long): Dataset[BRow] = {
    val spark = ids.sparkSession
    import spark.implicits._
    ids.select(col("id").cast("long")).as[Long]
      .map(id => BRow(id, Local.rademacherVec(seed, id, dim)))
  }

  /** Orthonormalise the columns of X via Gram + Cholesky (`X ← X R⁻¹`). */
  def orthonormalize(x: Dataset[BRow]): Dataset[BRow] =
    timesLocal(x, Local.orthonormalizer(gram(x)))

  /** Fix the sign of every column so its maximum-|·| entry is positive — the
    * standard deterministic sign convention for singular/eigenvectors. The
    * greedy seeding of HOPE+ (argmax per row of L) is meaningless under the
    * sign ambiguity of eigenvectors; this convention makes each contrast
    * column "claim" the cluster it marks most strongly.
    */
  def signFixColumns(x: Dataset[BRow]): Dataset[BRow] = {
    val spark = x.sparkSession
    import spark.implicits._
    val extremes = x.mapPartitions { it =>
      var acc: Array[Double] = null
      it.foreach { r =>
        if (acc == null) acc = new Array[Double](r.vec.length)
        var i = 0
        while (i < r.vec.length) {
          if (math.abs(r.vec(i)) > math.abs(acc(i))) acc(i) = r.vec(i)
          i += 1
        }
      }
      if (acc == null) Iterator.empty else Iterator.single(acc)
    }.collect().reduceLeft { (a, b) =>
      var i = 0
      while (i < a.length) { if (math.abs(b(i)) > math.abs(a(i))) a(i) = b(i); i += 1 }
      a
    }
    scaleCols(x, extremes.map(v => if (v < 0) -1.0 else 1.0))
  }

  /** Collect a row-block to a driver map (test/debug helper; small inputs only). */
  def collectMap(x: Dataset[BRow]): Map[Long, Array[Double]] =
    x.collect().map(r => r.id -> r.vec).toMap

  /** A driver-held factor (row `i` belongs to `ids(i)`) as a Dataset. */
  def fromLocal(spark: SparkSession, ids: Array[Long], rows: Local.Mat): Dataset[BRow] = {
    import spark.implicits._
    spark.createDataset(spark.sparkContext.parallelize(ids.indices.map(i => BRow(ids(i), rows(i)))))
  }

  /** Computes `rdd` once and caches it, so that the Dataset over it stays
    * cheap after the inputs it was computed from are unpersisted.
    */
  def materialize[T: Encoder](spark: SparkSession, rdd: RDD[T]): Dataset[T] = {
    rdd.persist(StorageLevel.MEMORY_AND_DISK).count()
    spark.createDataset(rdd)
  }

  /** [[materialize]] for a Dataset. */
  def localize[T](ds: Dataset[T]): Dataset[T] = materialize(ds.sparkSession, ds.rdd)(ds.encoder)
}
