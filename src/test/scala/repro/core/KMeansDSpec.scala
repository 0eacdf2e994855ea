package repro.core

import repro.SparkSpec
import repro.linalg.{BRow, Local}

/** Distributed Lloyd k-means on separable synthetic blobs. */
class KMeansDSpec extends SparkSpec {

  private lazy val sp = spark

  private def blobs(n: Int, k: Int, dim: Int, sep: Double, seed: Int) = {
    import sp.implicits._
    val rnd = new scala.util.Random(seed)
    val centers = Array.fill(k)(Array.fill(dim)(rnd.nextGaussian() * sep))
    val rows = (0 until n).map { i =>
      val c = i % k
      BRow(i.toLong, centers(c).map(_ + rnd.nextGaussian() * 0.1))
    }
    (rows.toDS(), (0 until n).map(i => i.toLong -> (i % k)))
  }

  test("recovers well-separated blobs exactly") {
    import sp.implicits._
    val (x, truth) = blobs(300, 4, 6, sep = 5.0, seed = 1)
    val assign = KMeansD.run(x, 4, seed = 3)
    val s = Metrics.evaluate(assign, truth.toDF("id", "label"))
    assert(s.ari > 0.99, s"ARI ${s.ari}")
  }

  test("returns an assignment for every input row with clusters in range") {
    val (x, _) = blobs(150, 3, 4, sep = 3.0, seed = 2)
    val assign = KMeansD.run(x, 3, seed = 1)
    repro.TestGraphs.assertValidAssignment(assign, 150, 3)
  }

  test("is deterministic for a fixed seed") {
    val (x, _) = blobs(120, 3, 4, sep = 3.0, seed = 5)
    val a = KMeansD.run(x, 3, seed = 9).collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    val b = KMeansD.run(x, 3, seed = 9).collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(a.sameElements(b))
  }

  test("rejects k greater than the number of rows") {
    import sp.implicits._
    val x = Seq(BRow(0L, Array(1.0)), BRow(1L, Array(2.0))).toDS()
    assertThrows[IllegalArgumentException](KMeansD.run(x, 5))
  }

  test("k-means++ seeding picks k distinct-ish centers") {
    val rnd = new scala.util.Random(4)
    val pts = Array.fill(100)(Array.fill(3)(rnd.nextGaussian()))
    val centers = KMeansD.plusPlusSeed(pts, 5, seed = 2)
    assert(centers.length == 5)
    // centers come from the sample
    centers.foreach(c => assert(pts.exists(p => p.sameElements(c))))
  }

  test("k-means++ seeding is deterministic") {
    val rnd = new scala.util.Random(6)
    val pts = Array.fill(50)(Array.fill(2)(rnd.nextGaussian()))
    val a = KMeansD.plusPlusSeed(pts, 4, seed = 8)
    val b = KMeansD.plusPlusSeed(pts, 4, seed = 8)
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
  }

  test("objective does not explode: within-cluster distance below random baseline") {
    import sp.implicits._
    val (x, _) = blobs(200, 4, 5, sep = 4.0, seed = 7)
    val assign = KMeansD.run(x, 4, seed = 5)
    val joined = x.toDF("id", "vec").join(assign, "id")
      .as[(Long, Array[Double], Int)].collect()
    val byCluster = joined.groupBy(_._3)
    val wss = byCluster.values.map { g =>
      val dim = g.head._2.length
      val mean = new Array[Double](dim)
      g.foreach(r => r._2.indices.foreach(i => mean(i) += r._2(i) / g.size))
      g.map(r => Local.sqDist(r._2, mean)).sum
    }.sum
    // Random 4-way split of blobs with sep=4 would leave WSS ~ n·sep²; tight
    // clusters give WSS ~ n·dim·0.01.
    assert(wss < 200 * 5 * 0.05, s"WSS too high: $wss")
  }

  test("assignments do not depend on the partition layout (1 vs 7 partitions)") {
    val (x, _) = blobs(240, 4, 5, sep = 1.5, seed = 11)
    def assign(parts: Int) = KMeansD.run(x.repartition(parts), 4, seed = 13)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(assign(1).sameElements(assign(7)))
  }

  test("one-pass Lloyd step matches a driver-local Lloyd step") {
    val (x, _) = blobs(200, 3, 4, sep = 3.0, seed = 8)
    val rows = x.collect()
    val rnd = new scala.util.Random(9)
    // Three centers near the data and one far away, which gets no rows.
    val centers = Array.fill(3)(rows(rnd.nextInt(rows.length)).vec.clone()) :+ Array.fill(4)(1e6)
    val (sums, counts, wss) = KMeansD.step(x.repartition(5).rdd, centers)
    val expSums = Local.zeros(4, 4); val expCounts = new Array[Long](4); var expWss = 0.0
    rows.foreach { r =>
      val d = centers.map(Local.sqDist(r.vec, _))
      val c = d.indexOf(d.min)
      Local.addInPlace(expSums(c), r.vec); expCounts(c) += 1; expWss += d(c)
    }
    assert(counts.sameElements(expCounts) && counts(3) == 0L)
    assert(Local.maxAbsDiff(sums, expSums) < 1e-10)
    assert(math.abs(wss - expWss) < 1e-10 * math.max(1.0, expWss))
  }
}
