package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.{BRow, Block, Csr, Local}

/** Johnson–Lindenstrauss sketches of biadjacency rows.
  *
  * Several data-clustering baselines (K-Means, K-Medoids, Birch) operate on
  * the raw |U|×|V| data matrix. We sketch each row with a signed random
  * projection (`X_u = Σ_v a(u,v) R_v`, `R_v` Rademacher) so distances are
  * preserved while centers stay β-dimensional — the standard substitution
  * when |V| is large (DESIGN.md).
  */
object Projections {

  /** Project U-side rows of the (optionally row-normalised) biadjacency. */
  def uRows(edges: DataFrame, dim: Int, seed: Long,
            rowNormalize: Boolean = true): Dataset[BRow] = {
    val spark = edges.sparkSession
    import spark.implicits._
    val a = Csr(edges, rows = "u", cols = "v", weight = "w")
    val r = a.colIds.map(id => Local.rademacherVec(seed, id, dim))
    val proj = a.times(r)
    val out = Block.materialize(spark,
      if (rowNormalize) proj.map(p => BRow(p.id, Local.unit(p.vec))) else proj)
    a.unpersist()
    out
  }
}
