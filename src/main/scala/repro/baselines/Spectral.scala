package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.KMeansD
import repro.linalg.{BRow, Block, Csr, Local, SubspaceIteration}

/** Spectral baselines: SC [55], SCC (Dhillon [12]) and SBC (Kluger [31]).
  * All use the shared `SubspaceIteration` engine — same trick as HOPE, so
  * comparisons are apples-to-apples on the eigen-solver.
  *
  * SC and SCC follow their ORIGINAL recipes (the paper runs the published
  * algorithms): SC clusters the whole unipartite vertex set U ∪ V into k
  * groups and reads off the U memberships; SCC uses ⌈log₂ k⌉ singular
  * vectors (vectors 2..ℓ+1) and jointly clusters both sides, as in Dhillon's
  * algorithm. Both behaviours are what makes these baselines noticeably
  * weaker than k-BGC-specific methods on bipartite graphs.
  */
object SpectralBaselines {

  private val PowerIters = 10

  /** Spectral clustering of the bipartite graph viewed as a unipartite graph:
    * top-k eigenvectors of the symmetrically normalised adjacency
    * `D^{-1/2} A D^{-1/2}` over U ∪ V, k-means over ALL vertices.
    */
  object SC extends Baseline {
    val name = "SC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val offset = edges.agg(max("u")).head.getLong(0) + 1L
      val du = edges.groupBy("u").agg(sum("w").as("du"))
      val dv = edges.groupBy("v").agg(sum("w").as("dv"))
      val norm = edges.join(du, "u").join(dv, "v")
        .select(col("u"), (col("v") + offset).as("v2"),
                (col("w") / sqrt(col("du") * col("dv"))).as("wn"))
      val sym = norm.select(col("u").as("src"), col("v2").as("dst"), col("wn").as("w"))
        .unionByName(norm.select(col("v2").as("src"), col("u").as("dst"), col("wn").as("w")))
      val a = Csr(sym, rows = "dst", cols = "src", weight = "w")
      // The normalised adjacency is symmetric but indefinite; shift by +I to
      // make it PSD so power iteration targets its algebraically largest
      // eigenvectors (the shift leaves eigenvectors unchanged).
      val shifted = (y: Local.Mat) => Local.add(a.squareTimes(y), y)
      val (vecs, _) = SubspaceIteration.topEig(shifted, a.colIds, k, PowerIters, seed)
      a.unpersist()
      // Joint k-means over U ∪ V (the unipartite treatment), then read off U.
      val assignAll = KMeansD.run(Block.fromLocal(spark, a.colIds, vecs.map(Local.unit)), k, seed = seed)
      assignAll.where(col("id") < offset)
    }
  }

  /** Dhillon's spectral co-clustering: `An = D_u^{-1/2} A D_v^{-1/2}`,
    * ℓ = ⌈log₂ k⌉ singular vectors (2..ℓ+1), joint k-means over the stacked
    * U and V embeddings.
    */
  object SCC extends Baseline {
    val name = "SCC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      import spark.implicits._
      val ell = math.max(1, math.ceil(math.log(k.toDouble) / math.log(2.0)).toInt)
      // Anᵀ (rows v, cols u), so that the U-side factor is driver-held.
      val a = Csr(edges, rows = "v", cols = "u", weight = "w")
      val an = a.normalized(0.5, 0.5)
      val (uVecs, sv) = SubspaceIteration.topRightSingular(an, ell + 1, PowerIters, seed)
      // Right singular vectors: V = Anᵀ U Σ⁻¹ (drop the leading vector on
      // both sides — it is the trivial degree direction).
      val inv = sv.map(s => if (s > 1e-12) 1.0 / s else 0.0)
      val offset = an.colIds.last + 1L
      val uEmb = Block.fromLocal(spark, an.colIds, uVecs.map(r => Local.unit(r.drop(1))))
      val vEmb = an.times(uVecs).map { r =>
        BRow(r.id + offset, Local.unit(Array.tabulate(ell)(j => r.vec(j + 1) * inv(j + 1))))
      }
      val assignAll = KMeansD.run(uEmb.union(spark.createDataset(vEmb)), k, seed = seed)
      Seq(a, an).foreach(_.unpersist())
      assignAll.where(col("id") < offset)
    }
  }

  /** Kluger's spectral biclustering with independent row/column rescaling
    * `D_u^{-1} A D_v^{-1}` (the paper's bistochastisation simplified to one
    * scaling pass), top-k singular vectors, k-means on the U embedding.
    */
  object SBC extends Baseline {
    val name = "SBC"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      // D_u⁻¹ A D_v⁻¹, stored transposed so that the U-side factor is driver-held.
      val a = Csr(edges, rows = "v", cols = "u", weight = "w")
      val an = a.normalized(1.0, 1.0)
      val (vecs, _) = SubspaceIteration.topRightSingular(an, k, PowerIters, seed)
      Seq(a, an).foreach(_.unpersist())
      KMeansD.run(Block.fromLocal(spark, an.colIds, vecs.map(Local.unit)), k, seed = seed)
    }
  }
}
