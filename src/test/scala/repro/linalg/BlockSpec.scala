package repro.linalg

import org.apache.spark.sql.Dataset
import repro.SparkSpec

/** Distributed dense-block kernels vs local reference computations
  * (sparse products are in `CsrSpec`).
  */
class BlockSpec extends SparkSpec {

  private lazy val sp = spark
  import scala.util.Random

  private def mkDense(rows: Map[Long, Array[Double]]): Dataset[BRow] = {
    import sp.implicits._
    rows.toSeq.map { case (id, v) => BRow(id, v) }.toDS()
  }

  test("gram equals XᵀX computed locally") {
    val rnd = new Random(5)
    val rows = (0L until 30L).map(i => i -> Array.fill(5)(rnd.nextGaussian())).toMap
    val g = Block.gram(mkDense(rows))
    val expected = Local.zeros(5, 5)
    rows.values.foreach { v =>
      for (i <- 0 until 5; j <- 0 until 5) expected(i)(j) += v(i) * v(j)
    }
    assert(Local.maxAbsDiff(g, expected) < 1e-10)
  }

  test("pairGram equals XᵀY with join semantics") {
    val rnd = new Random(7)
    val x = (0L until 20L).map(i => i -> Array.fill(3)(rnd.nextGaussian())).toMap
    val y = (5L until 25L).map(i => i -> Array.fill(4)(rnd.nextGaussian())).toMap
    val g = Block.pairGram(mkDense(x), mkDense(y))
    val expected = Local.zeros(3, 4)
    for (id <- 5L until 20L) {
      val xv = x(id); val yv = y(id)
      for (i <- 0 until 3; j <- 0 until 4) expected(i)(j) += xv(i) * yv(j)
    }
    assert(Local.maxAbsDiff(g, expected) < 1e-10)
  }

  test("timesLocal right-multiplies every row") {
    val m = Array(Array(1.0, 2.0), Array(0.0, 1.0))
    val x = mkDense(Map(0L -> Array(1.0, 1.0), 1L -> Array(2.0, 3.0)))
    val out = Block.collectMap(Block.timesLocal(x, m))
    assert(out(0L).sameElements(Array(1.0, 3.0)))
    assert(out(1L).sameElements(Array(2.0, 7.0)))
  }

  test("scaleCols multiplies each column by its factor") {
    val x = mkDense(Map(0L -> Array(1.0, 2.0, 3.0)))
    val out = Block.collectMap(Block.scaleCols(x, Array(2.0, 0.5, -1.0)))
    assert(out(0L).sameElements(Array(2.0, 1.0, -3.0)))
  }

  test("normalizeRows produces unit rows and keeps zero rows") {
    val x = mkDense(Map(0L -> Array(3.0, 4.0), 1L -> Array(0.0, 0.0)))
    val out = Block.collectMap(Block.normalizeRows(x))
    assert(math.abs(Local.l2(out(0L)) - 1.0) < 1e-12)
    assert(out(1L).sameElements(Array(0.0, 0.0)))
  }

  test("gaussianBlock is deterministic and id-dependent") {
    import sp.implicits._
    val ids = (0L until 10L).toDF("id")
    val a = Block.collectMap(Block.gaussianBlock(ids, 6, 11))
    val b = Block.collectMap(Block.gaussianBlock(ids, 6, 11))
    val c = Block.collectMap(Block.gaussianBlock(ids, 6, 12))
    assert(a.keySet == (0L until 10L).toSet)
    assert(a.forall { case (id, v) => v.sameElements(b(id)) })
    assert(a.exists { case (id, v) => !v.sameElements(c(id)) })
  }

  test("rademacherBlock rows have unit norm") {
    import sp.implicits._
    val ids = (0L until 5L).toDF("id")
    val m = Block.collectMap(Block.rademacherBlock(ids, 16, 3))
    m.values.foreach(v => assert(math.abs(Local.l2(v) - 1.0) < 1e-12))
  }

  test("orthonormalize yields orthonormal columns") {
    import sp.implicits._
    val ids = (0L until 50L).toDF("id")
    val x = Block.gaussianBlock(ids, 6, 21)
    val g = Block.gram(Block.orthonormalize(x))
    assert(Local.maxAbsDiff(g, Local.eye(6)) < 1e-8)
  }

  test("orthonormalize preserves the column span") {
    import sp.implicits._
    val ids = (0L until 40L).toDF("id")
    val x = Block.gaussianBlock(ids, 3, 31).cache()
    val q = Block.orthonormalize(x).cache()
    // Projection of X onto span(Q) must reproduce X: X = Q (Qᵀ X).
    val qtx = Block.pairGram(q, x)
    val recon = Block.collectMap(Block.timesLocal(q, qtx))
    val orig = Block.collectMap(x)
    orig.foreach { case (id, v) =>
      v.indices.foreach(i => assert(math.abs(recon(id)(i) - v(i)) < 1e-8))
    }
  }
}
