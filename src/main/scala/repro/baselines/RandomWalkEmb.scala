package repro.baselines

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.KMeansD
import repro.linalg.{BRow, Block, Csr, Local}

/** Random-walk proximity baselines: PPR [56] and NRP [64].
  *
  * Both cluster per-node personalised-PageRank-style proximity vectors. The
  * full Π matrix is |U∪V|² — we sketch it with a signed random projection R:
  * `Z = Σ_t (1-α) α^t P_full^t R` computed by the power recurrence
  * `Z_{t+1} = (1-α)R + α P Z_t`, exactly the PPR geometry each method's
  * k-means sees (DESIGN.md §2). NRP additionally reweights by √degree, the
  * spirit of its PPR reweighting.
  */
object RandomWalkEmb {

  private val SketchDim = 64
  // Decay 0.5 keeps the PPR mass local (FORA-style restart probabilities);
  // larger decay blurs cluster structure into the stationary distribution.
  private val Alpha = 0.5
  private val Steps = 8

  /** Symmetric random-walk transition edges over U ∪ V (V offset). */
  private def transitionEdges(edges: DataFrame): (DataFrame, Long) = {
    val offset = edges.agg(max("u")).head.getLong(0) + 1L
    val du = edges.groupBy("u").agg(sum("w").as("du"))
    val dv = edges.groupBy("v").agg(sum("w").as("dv"))
    val j = edges.join(du, "u").join(dv, "v")
    val uv = j.select(col("u").as("dst"), (col("v") + offset).as("src"),
                      (col("w") / col("du")).as("w")) // p(u,v) = w/du
    val vu = j.select((col("v") + offset).as("dst"), col("u").as("src"),
                      (col("w") / col("dv")).as("w")) // p(v,u) = w/dv
    // Row i of P holds p(i, ·), stored as (src = j, dst = i, p(i,j)); a Csr
    // with rows = dst and cols = src then computes (P y).
    (uv.unionByName(vu), offset)
  }

  /** Sketched PPR vectors of every vertex, held on the driver: the vertex
    * ids (V ids offset), one row per id, and the offset.
    */
  private def pprSketch(edges: DataFrame, seed: Long): (Array[Long], Local.Mat, Long) = {
    val (p, offset) = transitionEdges(edges)
    val a = Csr(p, rows = "dst", cols = "src", weight = "w")
    val ids = a.colIds
    val r0 = ids.map(id => Local.rademacherVec(seed, id, SketchDim))
    var z = r0
    var t = 0
    while (t < Steps) {
      val pz = a.squareTimes(z)
      z = Array.tabulate(ids.length)(i => Array.tabulate(SketchDim)(j => (1 - Alpha) * r0(i)(j) + Alpha * pz(i)(j)))
      t += 1
    }
    a.unpersist()
    // Drop the self-restart term (1-α)·R_i: its i.i.d. random vectors would
    // dominate pairwise distances and drown the neighbourhood signal — the
    // sketch then approximates the OFF-diagonal PPR mass, which is what the
    // clustering actually compares.
    val noSelf = Array.tabulate(ids.length)(i => Array.tabulate(SketchDim)(j => z(i)(j) - (1 - Alpha) * r0(i)(j)))
    (ids, noSelf, offset)
  }

  /** The U-side rows of a driver-held sketch, each mapped by `f`. */
  private def uRows(spark: SparkSession, ids: Array[Long], z: Local.Mat, offset: Long)
                   (f: (Long, Array[Double]) => Array[Double]): Dataset[BRow] = {
    val u = ids.indices.filter(ids(_) < offset).toArray
    Block.fromLocal(spark, u.map(ids), u.map(i => f(ids(i), z(i))))
  }

  /** PPR: k-means over sketched PPR vectors of the U side. */
  object PPR extends Baseline {
    val name = "PPR"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L // paper: "-" on MIND and larger

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val (ids, z, offset) = pprSketch(edges, seed)
      KMeansD.run(uRows(spark, ids, z, offset)((_, v) => Local.unit(v)), k, seed = seed)
    }
  }

  /** NRP: degree-reweighted PPR embedding (survives all datasets in paper). */
  object NRP extends Baseline {
    val name = "NRP"

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val (ids, z, offset) = pprSketch(edges, seed)
      val du = edges.groupBy("u").agg(sum("w")).collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      // No row normalisation: NRP's reweighting keeps the degree magnitude.
      KMeansD.run(uRows(spark, ids, z, offset)((id, v) => Local.axpy(math.sqrt(du(id)), v)), k, seed = seed)
    }
  }
}
