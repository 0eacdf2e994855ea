package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.linalg.{Block, Csr, Local}

/** NMF baseline [61]: rank-k non-negative factorisation `A ≈ W Hᵀ` by
  * distributed multiplicative updates; cluster(u) = argmax_j W[u,j].
  *
  *   W ← W ∘ (A H) / (W (HᵀH) + ε)
  *   H ← H ∘ (Aᵀ W) / (H (WᵀW) + ε)
  *
  * A is a [[Csr]] matrix with one row per U vertex. H is held on the driver
  * and W is cached next to A's rows, one block per partition, so each
  * iteration is one pass: it updates W's rows from `A H` and returns the
  * partials of `Aᵀ W` and `WᵀW` for the driver-side H update. This is fully
  * distributed — NMF is one of the few competitors that survives the large
  * datasets in the paper.
  */
object NmfBaseline extends Baseline {
  val name = "NMF"
  val iterations = 30

  def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
    import spark.implicits._
    val a = Csr(edges, rows = "u", cols = "v", weight = "w")
    def positive(id: Long, s: Long) = Local.gaussianVec(s, id, k).map(x => math.abs(x) + 0.1)

    var w: RDD[Local.Mat] = a.parts.map(p => p.rowIds.map(positive(_, seed)))
    var h = a.colIds.map(positive(_, seed + 1))
    val nV = a.nCols
    val eps = 1e-9

    var t = 0
    while (t < iterations) {
      val bc = spark.sparkContext.broadcast((h, Local.crossprod(h, h))) // (H, HᵀH)
      val next = a.parts.zipPartitions(w) { (ps, ws) =>
        val p = ps.next(); val wp = ws.next(); val (hv, hGram) = bc.value
        Iterator.single(Array.tabulate(p.numRows)(r => muUpdate(wp(r), p.rowTimes(r, hv), hGram, eps)))
      }.persist(StorageLevel.MEMORY_AND_DISK)
      val (atw, wGram) = a.parts.zipPartitions(next) { (ps, ws) =>
        val p = ps.next(); val wp = ws.next()
        val acc = Local.zeros(nV, k)
        var r = 0
        while (r < p.numRows) { p.addRowTransposed(r, wp(r), acc); r += 1 }
        Iterator.single((acc, Local.crossprod(wp, wp)))
      }.collect().reduceLeft { (x, y) => (Local.addMatInPlace(x._1, y._1), Local.addMatInPlace(x._2, y._2)) }
      h = h.indices.map(j => muUpdate(h(j), atw(j), wGram, eps)).toArray
      w.unpersist(blocking = false)
      w = next
      t += 1
    }
    val out = Block.materialize(spark, a.parts.zipPartitions(w) { (ps, ws) =>
      val p = ps.next(); val wp = ws.next()
      Iterator.tabulate(p.numRows)(r => (p.rowIds(r), Local.argmax(wp(r))))
    }).toDF("id", "cluster")
    w.unpersist(blocking = false)
    a.unpersist()
    out
  }

  /** One multiplicative update of a factor row: `x ∘ num / (x·G + ε)`. */
  private def muUpdate(x: Array[Double], num: Array[Double],
                       gram: Local.Mat, eps: Double): Array[Double] = {
    val den = Local.vecMat(x, gram)
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) {
      out(i) = math.max(x(i) * num(i) / (den(i) + eps), 1e-12)
      i += 1
    }
    out
  }
}
