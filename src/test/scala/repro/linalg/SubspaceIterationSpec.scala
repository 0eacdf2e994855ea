package repro.linalg

import repro.SparkSpec

/** Subspace iteration vs exact local eigendecomposition. */
class SubspaceIterationSpec extends SparkSpec {

  private lazy val sp = spark

  /** Dense PSD matrix as an operator on row-blocks plus its local form. */
  private def randomPsd(n: Int, seed: Int): Local.Mat = {
    val rnd = new scala.util.Random(seed)
    val a = Array.fill(n)(Array.fill(n)(rnd.nextGaussian() / math.sqrt(n.toDouble)))
    Local.matmul(a, Local.transpose(a))
  }

  /** The matrix as a square CSR operator: `y ↦ M y` on driver-held factors. */
  private def asCsr(m: Local.Mat): Csr = {
    import sp.implicits._
    val edges = (for (i <- m.indices; j <- m(i).indices if m(i)(j) != 0.0)
      yield (i.toLong, j.toLong, m(i)(j))).toDF("src", "dst", "w")
    Csr.signed(edges, rows = "dst", cols = "src", weight = "w")
  }

  test("topEig recovers the leading eigenvalues of a PSD matrix") {
    val n = 24
    val m = randomPsd(n, 42)
    val a = asCsr(m)
    val (_, lam) = SubspaceIteration.topEig(a.squareTimes, a.colIds, 5, 30, seed = 9)
    val (_, exact) = Local.symEigDesc(m)
    for (i <- 0 until 5)
      assert(math.abs(lam(i) - exact(i)) < 1e-4, s"eig $i: ${lam(i)} vs ${exact(i)}")
  }

  test("topEig eigenvectors satisfy A v = λ v") {
    val n = 16
    val m = randomPsd(n, 7)
    val a = asCsr(m)
    val (v, lam) = SubspaceIteration.topEig(a.squareTimes, a.colIds, 3, 40, seed = 1)
    val av = a.squareTimes(v)
    for (id <- 0 until n; j <- 0 until 3)
      assert(math.abs(av(id)(j) - lam(j) * v(id)(j)) < 1e-3)
  }

  test("topEig returns orthonormal vectors") {
    val n = 20
    val a = asCsr(randomPsd(n, 13))
    val (vecs, _) = SubspaceIteration.topEig(a.squareTimes, a.colIds, 4, 25, seed = 5)
    assert(Local.maxAbsDiff(Local.crossprod(vecs, vecs), Local.eye(4)) < 1e-6)
  }

  test("topLeftSingular matches exact SVD singular values") {
    import sp.implicits._
    val rnd = new scala.util.Random(29)
    val rows = 18; val cols = 12
    val m = Array.fill(rows)(Array.fill(cols)(rnd.nextGaussian()))
    val edges = (for (i <- 0 until rows; j <- 0 until cols)
      yield (i.toLong, j.toLong, m(i)(j))).toDF("r", "c", "w")
    val ids = (0L until rows.toLong).toDF("id")
    val (vecs, sv) = SubspaceIteration.topLeftSingular(
      edges, "r", "c", "w", ids, 4, 35, seed = 3)
    val (_, exact, _) = Local.svdSmall(m.map(_.clone()) ++ Array.empty)
    for (i <- 0 until 4)
      assert(math.abs(sv(i) - exact(i)) < 1e-4, s"σ$i: ${sv(i)} vs ${exact(i)}")
    // Left singular vectors diagonalise M Mᵀ.
    val mmt = Local.matmul(m, Local.transpose(m))
    val v = Block.collectMap(vecs)
    for (id <- 0L until rows.toLong; j <- 0 until 4) {
      val row = (0 until rows).map(i2 => mmt(id.toInt)(i2) * v(i2.toLong)(j)).sum
      assert(math.abs(row - sv(j) * sv(j) * v(id)(j)) < 1e-3)
    }
  }

  test("topLeftSingular is deterministic for a fixed seed") {
    import sp.implicits._
    val rnd = new scala.util.Random(31)
    val edges = (for (i <- 0 until 10; j <- 0 until 8 if rnd.nextDouble() < 0.4)
      yield (i.toLong, j.toLong, rnd.nextDouble())).toDF("r", "c", "w")
    val ids = edges.select(org.apache.spark.sql.functions.col("r").as("id")).distinct()
    val (_, s1) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 3, 20, 77)
    val (_, s2) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 3, 20, 77)
    assert(s1.sameElements(s2))
  }

  test("topLeftSingular clamps β + 4 guard columns to |V| and rejects β > |V|") {
    import sp.implicits._
    val rnd = new scala.util.Random(37)
    val rows = 5; val cols = 12 // |V| = 5 row vertices < β + 4
    val m = Array.fill(rows)(Array.fill(cols)(rnd.nextGaussian()))
    val edges = (for (i <- 0 until rows; j <- 0 until cols)
      yield (i.toLong, j.toLong, m(i)(j))).toDF("r", "c", "w")
    val ids = (0L until rows.toLong).toDF("id")
    val (vecs, sv) = SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 4, 35, seed = 3)
    val (_, exact, _) = Local.svdSmall(m)
    for (i <- 0 until 4)
      assert(math.abs(sv(i) - exact(i)) < 1e-8, s"σ$i: ${sv(i)} vs ${exact(i)}")
    assert(Block.collectMap(vecs).values.forall(_.length == 4))
    val e = intercept[IllegalArgumentException](
      SubspaceIteration.topLeftSingular(edges, "r", "c", "w", ids, 6, 35, seed = 3))
    assert(e.getMessage.contains("β = 6 exceeds the 5 vertices"), e.getMessage)
  }
}
