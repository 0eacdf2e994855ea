package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.storage.StorageLevel
import repro.linalg.{BRow, Block, Local}

/** HOPE+ (paper §4, Algorithms 2 and 3).
  *
  * Stage 1: the k-largest eigenvectors L of `H Hᵀ` are approximated by the
  * top-k left singular vectors of the low-rank X from HOPE (Lemma 4.3),
  * computed from the local β×β Gram of X — no |U|×|U| matrix is ever formed.
  *
  * Stage 2: greedy seeding of the cluster indicator C (argmax per row of L),
  * then alternating rounding between the k×k alignment T and C:
  *  - FNEM: `T = Φ Ψᵀ` where `Φ Σ Ψᵀ = SVD(Lᵀ C)` (Lemma 4.4, Procrustes);
  *  - SNEM: `T = Lᵀ C`                                  (Lemma 4.5).
  * C's column normalisation (1/√|C_j|) is folded into the local `Lᵀ C`
  * computation; the returned result is the assignment `(id, cluster)`.
  */
object HopePlus {

  sealed trait Urt { def name: String }
  case object Fnem extends Urt { val name = "FNEM" }
  case object Snem extends Urt { val name = "SNEM" }

  final case class Params(alpha: Double = 0.3,
                          beta: Int = 0,
                          powerIters: Int = 12,
                          maxRounds: Int = 100,
                          seed: Long = 7L)

  /** Top-k left singular vectors of the dense row-block X (|U|×β, β ≥ k):
    * eigen-decompose the β×β Gram `XᵀX` locally, keep the top-k right
    * singular directions W_k with singular values s, and rotate:
    * `L = X W_k diag(1/s)` — orthonormal columns by construction.
    *
    * Columns are sign-fixed (max-|·| entry positive): the greedy seeding of
    * Algorithm 2 argmaxes over L's raw entries, which is only meaningful
    * under a deterministic sign convention — otherwise the all-positive
    * leading vector plus arbitrarily-signed contrasts collapse the seed
    * into one cluster.
    */
  def leftSingular(x: Dataset[BRow], k: Int): Dataset[BRow] = {
    val g = Block.gram(x)
    val (w, lam) = Local.symEigDesc(g)
    val rot = Local.zeros(g.length, k)
    var j = 0
    while (j < k) {
      val s = math.sqrt(math.max(lam(j), 1e-300))
      var i = 0
      while (i < g.length) { rot(i)(j) = w(i)(j) / s; i += 1 }
      j += 1
    }
    Block.signFixColumns(Block.timesLocal(x, rot))
  }

  /** Rounding (Algorithm 3): alternate T and C updates until C is unchanged
    * or `maxRounds` iterations. Returns assignments `(id, cluster)`.
    *
    * C is never stored: the assignment under T is `argmax_j (L T)_{i,j}`
    * (Lines 8–11, Alg. 3), and the greedy seed is the one under T = I
    * (Lines 6–10, Alg. 2). Each round is one pass over L that takes the argmax
    * under both the previous and the new T, which gives the number of
    * changed rows and the next `Lᵀ C` together.
    */
  def round(l: Dataset[BRow], k: Int, urt: Urt, maxRounds: Int): DataFrame = {
    val spark = l.sparkSession
    import spark.implicits._
    val rows = l.rdd.persist(StorageLevel.MEMORY_AND_DISK)
    var tPrev = Local.eye(k)
    var m = roundPass(rows, tPrev, tPrev, k)._1
    var t = 0
    var converged = false
    while (t < maxRounds && !converged) {
      val tMat = urt match {
        case Fnem =>
          val (phi, _, v) = Local.svdSmall(m)
          Local.matmul(phi, Local.transpose(v))
        case Snem => m
      }
      val (next, changed) = roundPass(rows, tPrev, tMat, k)
      m = next
      tPrev = tMat
      converged = changed == 0L
      t += 1
    }
    val bc = spark.sparkContext.broadcast(tPrev)
    val out = Block.materialize(spark, rows.map(r => (r.id, Local.argmax(Local.vecMat(r.vec, bc.value)))))
      .toDF("id", "cluster")
    rows.unpersist()
    out
  }

  /** One rounding pass: with C the assignment under `t`, returns `Lᵀ C` as a
    * local k×k matrix with C's 1/√|C_j| normalisation applied (column j is
    * `Σ_{i ∈ C_j} L_i / √|C_j|`, zero for an empty cluster), and the number
    * of rows whose cluster differs from the one under `tPrev`.
    */
  private def roundPass(rows: RDD[BRow], tPrev: Local.Mat, t: Local.Mat, k: Int): (Local.Mat, Long) = {
    val bc = rows.sparkContext.broadcast((tPrev, t))
    val partials = rows.mapPartitions { it =>
      val (before, after) = bc.value
      val sums = Local.zeros(k, k) // row j: Σ_{i ∈ C_j} L_i
      val counts = new Array[Long](k)
      var changed = 0L
      it.foreach { r =>
        val c = Local.argmax(Local.vecMat(r.vec, after))
        if (c != Local.argmax(Local.vecMat(r.vec, before))) changed += 1
        Local.addInPlace(sums(c), r.vec)
        counts(c) += 1
      }
      Iterator.single((sums, counts, changed))
    }.collect()
    bc.destroy()
    val (sums, counts, changed) = partials.reduceLeft { (a, b) =>
      (Local.addMatInPlace(a._1, b._1), a._2.zip(b._2).map { case (p, q) => p + q }, a._3 + b._3)
    }
    val m = Local.zeros(k, k)
    for (c <- 0 until k if counts(c) > 0) {
      val inv = 1.0 / math.sqrt(counts(c).toDouble)
      for (a <- 0 until k) m(a)(c) = sums(c)(a) * inv
    }
    (m, changed)
  }

  /** Full HOPE+ for one rounding scheme. */
  def run(edges: DataFrame, k: Int, urt: Urt, params: Params = Params()): DataFrame = {
    val x = Hope.embed(edges, k,
      Hope.Params(alpha = params.alpha, beta = params.beta,
                  powerIters = params.powerIters, seed = params.seed))
    val l = leftSingular(x, k)
    round(l, k, urt, params.maxRounds)
  }

  /** Run both variants sharing one embedding/eigen stage (bench helper). */
  def runBoth(edges: DataFrame, k: Int, params: Params = Params()): (DataFrame, DataFrame) = {
    val x = Hope.embed(edges, k,
      Hope.Params(alpha = params.alpha, beta = params.beta,
                  powerIters = params.powerIters, seed = params.seed))
    val l = leftSingular(x, k)
    (round(l, k, Fnem, params.maxRounds), round(l, k, Snem, params.maxRounds))
  }
}
