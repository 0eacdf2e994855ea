package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.{BRow, Block, Csr, Local, SubspaceIteration}

/** HOPE (paper §3, Algorithm 1).
  *
  * 1. β-truncated SVD of Q → left singular vectors U, singular values Σ
  *    (via subspace iteration on the operator `y ↦ Q(Qᵀ y)`, so neither
  *    `Q Qᵀ` nor the HOP matrix H is materialised).
  * 2. `X̂ = P U (1-α)/(1-α Σ²)` (Eq. 8), then L2-normalise rows → X, the
  *    low-rank approximation of the HOP matrix (Theorem 3.2).
  * 3. k-Means over the rows of X.
  */
object Hope {

  /** Tunables; defaults follow the paper (α=0.3, β=5k). */
  final case class Params(alpha: Double = 0.3,
                          beta: Int = 0, // 0 → 5k
                          powerIters: Int = 12,
                          kMeansIters: Int = 25,
                          seed: Long = 7L) {
    def betaFor(k: Int): Int = if (beta > 0) beta else 5 * k
  }

  /** The low-rank HOP approximation X (Lines 1–4 of Algorithm 1), shared by
    * HOPE and HOPE+. Rows are keyed by U-side vertex id and L2-normalised.
    *
    * The edges are cached once as a CSR matrix with one row per U vertex;
    * the V-side factor U (|V|×(β+4) during the power steps) is held on the
    * driver, and `P·U` plus the row normalisation is one map-only pass.
    */
  def embed(edges: DataFrame, k: Int, params: Params): Dataset[BRow] = {
    val beta = params.betaFor(k)
    val a = Csr(edges, rows = "u", cols = "v", weight = "w")
    val qT = a.normalized(0.5, 0.5) // Qᵀ: w / sqrt(du·dv)
    val p = a.normalized(1.0, 0.0)  // P:  w / du (Eq. 1)
    val (uVecs, sigma) = SubspaceIteration.topRightSingular(qT, beta, params.powerIters, params.seed)
    // Eigenvalues of QQᵀ are σ² ∈ [0,1] (Lemma 3.1 proof); clamp for safety.
    val factors = sigma.map { s =>
      val lam = math.min(math.max(s * s, 0.0), 1.0 - 1e-12)
      (1.0 - params.alpha) / (1.0 - params.alpha * lam)
    }
    val scaled = uVecs.map(row => Array.tabulate(beta)(j => row(j) * factors(j)))
    val spark = edges.sparkSession
    import spark.implicits._
    val x = Block.materialize(spark, p.times(scaled).map(r => BRow(r.id, Local.unit(r.vec))))
    Seq(a, qT, p).foreach(_.unpersist())
    x
  }

  /** Full HOPE: returns cluster assignments `(id, cluster)` for the U side. */
  def run(edges: DataFrame, k: Int, params: Params = Params()): DataFrame = {
    val x = embed(edges, k, params)
    KMeansD.run(x, k, maxIters = params.kMeansIters, seed = params.seed)
  }
}
