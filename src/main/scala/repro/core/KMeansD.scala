package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.storage.StorageLevel
import repro.linalg.{BRow, Block, Local}

/** Distributed Lloyd k-Means over dense row-blocks, with k-means++ seeding on
  * a driver-side sample. Used by HOPE (Alg. 1 Line 5) and by every baseline
  * that clusters an embedding (SC, SCC, SBC, NRP, PPR, K-Means).
  *
  * Each Lloyd step is one Spark pass: every partition returns its per-cluster
  * sums, counts and squared distances, and the driver adds them in partition
  * order.
  */
object KMeansD {

  /** Cluster rows of `x` into k groups; returns `(id, cluster)`.
    *
    * Lloyd is restarted `restarts` times from different k-means++ seeds and
    * the solution with the lowest within-cluster sum of squares wins — the
    * standard guard against k-means' local optima (the paper's §4 motivates
    * HOPE+ with exactly this failure mode of HOPE).
    *
    * The seeding sample is the `sampleSize` rows with the smallest per-id
    * hash, sorted by id, so it depends neither on the partition layout nor
    * on the row order of `x`.
    */
  def run(x: Dataset[BRow], k: Int, maxIters: Int = 25, seed: Long = 7L,
          sampleSize: Int = 4096, tol: Double = 1e-6, restarts: Int = 3): DataFrame = {
    val spark = x.sparkSession
    import spark.implicits._

    val rows = x.rdd.persist(StorageLevel.MEMORY_AND_DISK)
    val size = math.max(sampleSize, k)
    val scanned = rows.mapPartitions { it =>
      val keyed = it.map(r => (sampleKey(seed, r.id), r)).toArray
      Iterator.single((keyed.length.toLong, keyed.sortBy(_._1).take(size)))
    }.collect()
    val n = scanned.map(_._1).sum
    require(n >= k, s"cannot make $k clusters from $n rows")
    val sample = scanned.flatMap(_._2).sortBy(_._1).take(size).map(_._2).sortBy(_.id).map(_.vec)

    def lloyd(restartSeed: Long): (Array[Array[Double]], Double) = {
      var centers = plusPlusSeed(sample, k, restartSeed)
      var iter = 0
      var shift = Double.MaxValue
      while (iter < maxIters && shift > tol) {
        val (sums, counts, _) = step(rows, centers)
        val next = centers.map(_.clone())
        val rng = new java.util.Random(Local.mix(restartSeed + iter))
        (0 until k).foreach { c =>
          // Re-seed empty clusters from random sample points.
          next(c) = if (counts(c) > 0) Local.axpy(1.0 / counts(c), sums(c))
                    else sample(rng.nextInt(sample.length)).clone()
        }
        shift = centers.zip(next).map { case (a, b) => Local.sqDist(a, b) }.max
        centers = next
        iter += 1
      }
      (centers, step(rows, centers)._3)
    }

    // Keep the earliest restart unless a later one is strictly better beyond
    // float-reduction noise, so that the choice does not hinge on the
    // partition layout.
    val (bestCenters, _) = (0 until math.max(1, restarts))
      .map(r => lloyd(seed + 1000L * r))
      .reduceLeft[(Array[Array[Double]], Double)] { (a, b) =>
        if (b._2 < a._2 * (1 - 1e-9) - 1e-12) b else a
      }

    val bc = spark.sparkContext.broadcast(bestCenters)
    val out = Block.materialize(spark, rows.map(r => (r.id, nearest(r.vec, bc.value)._1)))
      .toDF("id", "cluster")
    rows.unpersist()
    out
  }

  /** One Lloyd pass: per-cluster row sums, row counts and the total squared
    * distance of every row to its nearest center.
    */
  private[core] def step(rows: RDD[BRow], centers: Array[Array[Double]]): (Local.Mat, Array[Long], Double) = {
    val bc = rows.sparkContext.broadcast(centers)
    val partials = rows.mapPartitions { it =>
      val cs = bc.value
      val sums = Local.zeros(cs.length, cs(0).length)
      val counts = new Array[Long](cs.length)
      var wss = 0.0
      it.foreach { r =>
        val (c, d) = nearest(r.vec, cs)
        Local.addInPlace(sums(c), r.vec)
        counts(c) += 1
        wss += d
      }
      Iterator.single((sums, counts, wss))
    }.collect()
    bc.destroy()
    partials.reduceLeft { (a, b) =>
      (Local.addMatInPlace(a._1, b._1), a._2.zip(b._2).map { case (p, q) => p + q }, a._3 + b._3)
    }
  }

  /** Uniform, layout-independent sampling key of a row (a bijection of the id). */
  private def sampleKey(seed: Long, id: Long): Long = Local.mix(seed ^ Local.mix(id))

  /** Index of the nearest center and the squared distance to it. */
  private def nearest(v: Array[Double], centers: Array[Array[Double]]): (Int, Double) = {
    var best = 0
    var bestD = Local.sqDist(v, centers(0))
    var c = 1
    while (c < centers.length) {
      val d = Local.sqDist(v, centers(c))
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    (best, bestD)
  }

  /** k-means++ seeding on a local sample (deterministic in `seed`). */
  def plusPlusSeed(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    require(points.nonEmpty, "empty seeding sample")
    val rng = new java.util.Random(Local.mix(seed))
    val centers = new Array[Array[Double]](k)
    centers(0) = points(rng.nextInt(points.length)).clone()
    val d2 = points.map(p => Local.sqDist(p, centers(0)))
    var c = 1
    while (c < k) {
      val total = d2.sum
      var idx =
        if (total <= 0) rng.nextInt(points.length)
        else {
          var r = rng.nextDouble() * total
          var i = 0
          while (i < points.length - 1 && r > d2(i)) { r -= d2(i); i += 1 }
          i
        }
      centers(c) = points(idx).clone()
      var i = 0
      while (i < points.length) {
        val d = Local.sqDist(points(i), centers(c))
        if (d < d2(i)) d2(i) = d
        i += 1
      }
      c += 1
    }
    centers
  }
}
