package repro.linalg

import repro.SparkSpec
import scala.util.Random

/** CSR kernels vs local dense products, and the input checks of the build. */
class CsrSpec extends SparkSpec {

  private lazy val sp = spark

  private def mkEdges(es: Seq[(Long, Long, Double)]) = {
    import sp.implicits._
    es.toDF("src", "dst", "w")
  }

  private def collectRows(a: Csr, y: Local.Mat): Map[Long, Array[Double]] =
    a.times(y).collect().map(r => r.id -> r.vec).toMap

  /** A driver-held factor with row `c` taken from `dense(colIds(c))`. */
  private def factor(a: Csr, dense: Map[Long, Array[Double]]): Local.Mat = a.colIds.map(dense)

  test("times matches a hand-computed example") {
    // M = [[2,0],[1,3]] over src∈{0,1}; dense rows x0=(1,1), x1=(2,0)
    val a = Csr(mkEdges(Seq((0L, 0L, 2.0), (0L, 1L, 1.0), (1L, 1L, 3.0))), rows = "dst", cols = "src", weight = "w")
    val out = collectRows(a, factor(a, Map(0L -> Array(1.0, 1.0), 1L -> Array(2.0, 0.0))))
    assert(out(0L).sameElements(Array(2.0, 2.0)))        // 2·x0
    assert(out(1L).sameElements(Array(7.0, 1.0)))        // 1·x0 + 3·x1
  }

  test("times matches local dense multiply on random input") {
    val rnd = new Random(3)
    val n = 20; val m = 15; val d = 4
    val es = for (_ <- 0 until 120) yield
      (rnd.nextInt(n).toLong, rnd.nextInt(m).toLong, rnd.nextDouble())
    val dedup = es.groupBy(e => (e._1, e._2)).map { case ((s, t), g) => (s, t, g.map(_._3).sum) }.toSeq
    val dense = (0 until n).map(i => i.toLong -> Array.fill(d)(rnd.nextGaussian())).toMap
    val expected = Array.fill(m)(new Array[Double](d))
    dedup.foreach { case (s, t, w) =>
      val v = dense(s)
      for (j <- 0 until d) expected(t.toInt)(j) += w * v(j)
    }
    val a = Csr(mkEdges(dedup), rows = "dst", cols = "src", weight = "w")
    val out = collectRows(a, factor(a, dense))
    for (t <- 0 until m if out.contains(t.toLong); j <- 0 until d)
      assert(math.abs(out(t.toLong)(j) - expected(t)(j)) < 1e-10)
    // every dst with at least one edge appears
    assert(out.keySet == dedup.map(_._2).toSet)
  }

  /** A random weighted bipartite graph as edges `(u, v, w)` and as its
    * dense biadjacency (|U|×|V|).
    */
  private def randomGraph(seed: Int) = {
    val rnd = new Random(seed)
    val nU = 14; val nV = 9
    val es = (for (u <- 0 until nU; v <- 0 until nV if rnd.nextDouble() < 0.35)
      yield (u.toLong, v.toLong, 0.5 + rnd.nextDouble())) ++
      (0 until nU).map(u => (u.toLong, (u % nV).toLong, 1.0)) // min-degree ≥ 1
    val dense = Array.fill(nU)(new Array[Double](nV))
    es.foreach { case (u, v, w) => dense(u.toInt)(v.toInt) += w }
    import sp.implicits._
    (es.toDF("u", "v", "w"), dense)
  }

  test("gramTimes of Qᵀ equals Q(Qᵀy) computed densely") {
    val (edges, m) = randomGraph(11)
    val du = m.map(_.sum)
    val dv = m.transpose.map(_.sum)
    // Qᵀ[u][v] = w / sqrt(du·dv) (Table 1).
    val qT = Array.tabulate(m.length, m(0).length)((u, v) => m(u)(v) / math.sqrt(du(u) * dv(v)))
    val a = Csr(edges, rows = "u", cols = "v", weight = "w")
    val q = a.normalized(0.5, 0.5)
    val rnd = new Random(2)
    val y = Array.fill(a.nCols)(Array.fill(5)(rnd.nextGaussian()))
    val expected = Local.matmul(Local.transpose(qT), Local.matmul(qT, y))
    assert(Local.maxAbsDiff(q.gramTimes(y), expected) < 1e-10)
    Seq(a, q).foreach(_.unpersist())
  }

  test("P·U with row normalisation matches the dense product") {
    val (edges, m) = randomGraph(12)
    val p = m.map(row => row.map(_ / row.sum)) // Eq. 1
    val a = Csr(edges, rows = "u", cols = "v", weight = "w")
    val pCsr = a.normalized(1.0, 0.0)
    val rnd = new Random(4)
    val u = Array.fill(a.nCols)(Array.fill(3)(rnd.nextGaussian()))
    val expected = Local.matmul(p, u).map(Local.unit)
    val out = pCsr.times(u).map(r => BRow(r.id, Local.unit(r.vec))).collect().map(r => r.id -> r.vec).toMap
    assert(out.keySet == m.indices.map(_.toLong).toSet)
    for (i <- m.indices; j <- 0 until 3)
      assert(math.abs(out(i.toLong)(j) - expected(i)(j)) < 1e-10)
    Seq(a, pCsr).foreach(_.unpersist())
  }

  test("the build rejects negative, NaN and infinite weights, naming the edge") {
    Seq(-0.5, Double.NaN, Double.PositiveInfinity).foreach { bad =>
      val edges = mkEdges(Seq((1L, 2L, 1.0), (3L, 4L, bad), (5L, 6L, 2.0)))
      val e = intercept[IllegalArgumentException](Csr(edges, rows = "src", cols = "dst", weight = "w"))
      assert(e.getMessage.contains(s"(3, 4, $bad)"), e.getMessage)
    }
  }

  test("the build sums duplicate (row, col) pairs") {
    val dup = Csr(mkEdges(Seq((0L, 0L, 1.0), (0L, 1L, 2.0), (0L, 1L, 0.5), (1L, 0L, 3.0), (0L, 1L, 1.5))),
      rows = "src", cols = "dst", weight = "w")
    val summed = Csr(mkEdges(Seq((0L, 0L, 1.0), (0L, 1L, 4.0), (1L, 0L, 3.0))),
      rows = "src", cols = "dst", weight = "w")
    val y = Array(Array(1.0, -2.0), Array(0.5, 3.0))
    val a = collectRows(dup, y); val b = collectRows(summed, y)
    assert(a.keySet == b.keySet)
    a.foreach { case (id, v) => assert(v.sameElements(b(id))) }
    assert(dup.colSums().sameElements(Array(4.0, 4.0)))
  }

  test("sparse and large Long ids work") {
    val big = 1000000000000L
    val es = Seq((big + 3, big + 70, 1.0), (big + 3, 5L, 2.0), (big + 900, 5L, 0.5),
                 (7L, big + 70, 4.0), (7L, 1L << 40, 1.5))
    val a = Csr(mkEdges(es), rows = "src", cols = "dst", weight = "w")
    assert(a.colIds.sameElements(Array(5L, big + 70, 1L << 40)))
    val dense = Map(5L -> Array(1.0), (1L << 40) -> Array(10.0), (big + 70) -> Array(100.0))
    val out = collectRows(a, factor(a, dense))
    assert(out.keySet == Set(big + 3, big + 900, 7L))
    assert(out(big + 3).sameElements(Array(102.0)))
    assert(out(big + 900).sameElements(Array(0.5)))
    assert(out(7L).sameElements(Array(415.0)))
  }
}
