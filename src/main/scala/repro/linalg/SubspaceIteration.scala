package repro.linalg

import org.apache.spark.sql.{DataFrame, Dataset}

/** Block power iteration with Rayleigh–Ritz extraction for the top-β
  * eigenpairs of a symmetric positive semi-definite operator — the
  * randomized range finder with oversampling and power steps (Halko,
  * Martinsson & Tropp 2011).
  *
  * The operator is supplied as `apply: y ↦ A y` on driver-held factors, so
  * the |V|×|V| matrix (e.g. `Q Qᵀ`) is never materialised — exactly the
  * trick HOPE relies on (paper §3, "without materializing H explicitly").
  * Each application is one Spark pass ([[Csr.gramTimes]]); the Gram,
  * Cholesky and Rayleigh–Ritz steps run on the driver. This is also the
  * engine behind every spectral baseline's truncated SVD.
  */
object SubspaceIteration {

  /** Guard vectors beyond β — standard randomized-method oversampling so the
    * trailing requested eigenpairs converge too.
    */
  private val Oversample = 4

  /** Top-β eigenpairs of the PSD operator.
    *
    * @param apply      the operator `y ↦ A y`; row `i` of `y` belongs to `ids(i)`
    * @param ids        the operator's coordinates, which seed the start block
    * @param beta       subspace dimension (number of eigenpairs), at most |ids|
    * @param powerIters number of power-iteration steps (each = 1 operator
    *                   application + re-orthonormalisation)
    * @return (eigenvectors as columns, eigenvalues descending)
    */
  def topEig(apply: Local.Mat => Local.Mat,
             ids: Array[Long],
             beta: Int,
             powerIters: Int,
             seed: Long): (Local.Mat, Array[Double]) = {
    val n = ids.length
    require(beta <= n, s"β = $beta exceeds the $n vertices the operator acts on; choose β ≤ $n")
    val width = math.min(beta + Oversample, n)
    var v = Local.orthonormalize(ids.map(id => Local.gaussianVec(seed, id, width)))
    var t = 0
    while (t < powerIters) {
      v = Local.orthonormalize(apply(v))
      t += 1
    }
    // Rayleigh–Ritz: rotate the converged subspace onto eigenvector axes and
    // drop the guard columns.
    val (w, lambda) = Local.symEigDesc(Local.crossprod(v, apply(v)))
    (Local.matmul(v, w.map(_.take(beta))), lambda.take(beta))
  }

  /** Top-β right singular vectors of `a` (one row per column id of `a`) and
    * its singular values, via eigenpairs of the operator `y ↦ Aᵀ(A y)`.
    */
  def topRightSingular(a: Csr, beta: Int, powerIters: Int, seed: Long): (Local.Mat, Array[Double]) = {
    val (vecs, lambda) = topEig(a.gramTimes, a.colIds, beta, powerIters, seed)
    (vecs, lambda.map(x => math.sqrt(math.max(x, 0.0))))
  }

  /** Truncated SVD of a sparse matrix M given as edges `(row, col, w)`.
    *
    * Returns the top-β LEFT singular vectors (block over the row ids that
    * have an edge) and the singular values. `rowIds` is accepted for source
    * compatibility and not read: the row space is the set of row ids in
    * `edges`.
    */
  def topLeftSingular(edges: DataFrame,
                      rowCol: String, colCol: String, wCol: String,
                      rowIds: DataFrame,
                      beta: Int,
                      powerIters: Int,
                      seed: Long): (Dataset[BRow], Array[Double]) = {
    // The factor is driver-held, so M's rows are the CSR's columns: A = Mᵀ.
    val a = Csr.signed(edges, rows = colCol, cols = rowCol, weight = wCol)
    val (vecs, sv) = topRightSingular(a, beta, powerIters, seed)
    a.unpersist()
    (Block.fromLocal(edges.sparkSession, a.colIds, vecs), sv)
  }
}
