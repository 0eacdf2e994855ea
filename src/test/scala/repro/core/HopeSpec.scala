package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.linalg.{Block, Local}

/** HOPE (Algorithm 1) end-to-end and embedding-level properties. */
class HopeSpec extends SparkSpec {

  private lazy val sp = spark
  private val fastParams = Hope.Params(powerIters = 8, seed = 3)

  test("recovers a well-separated planted partition (high ARI)") {
    val g = TestGraphs.easy(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.9, s"scores: $s")
    assert(s.acc > 0.9, s"scores: $s")
  }

  test("beats heavy hub noise (high-order signal survives)") {
    val g = TestGraphs.hubHeavy(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.6, s"scores: $s")
  }

  test("works on weighted graphs") {
    val g = TestGraphs.weighted(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.85, s"scores: $s")
  }

  test("embedding rows are unit-norm (X rows normalised, Eq. 6 analog)") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, fastParams)
    Block.collectMap(x).values.foreach { v =>
      assert(math.abs(Local.l2(v) - 1.0) < 1e-8)
    }
  }

  test("embedding has one row per U vertex and β = 5k columns by default") {
    val g = TestGraphs.easy(sp)
    val x = Block.collectMap(Hope.embed(g.edges, g.config.k, fastParams))
    assert(x.size == g.config.nU)
    x.values.foreach(v => assert(v.length == 5 * g.config.k))
  }

  test("explicit β overrides the 5k default") {
    val g = TestGraphs.easy(sp)
    val x = Block.collectMap(Hope.embed(g.edges, g.config.k,
      fastParams.copy(beta = 7)))
    x.values.foreach(v => assert(v.length == 7))
  }

  test("same-cluster vertices sit closer in X than cross-cluster ones") {
    val g = TestGraphs.easy(sp)
    val x = Block.collectMap(Hope.embed(g.edges, g.config.k, fastParams))
    val labels = g.uLabels.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val rnd = new scala.util.Random(2)
    val ids = x.keys.toArray
    var sameSum = 0.0; var sameN = 0
    var diffSum = 0.0; var diffN = 0
    for (_ <- 0 until 4000) {
      val a = ids(rnd.nextInt(ids.length)); val b = ids(rnd.nextInt(ids.length))
      if (a != b) {
        val d = Local.sqDist(x(a), x(b))
        if (labels(a) == labels(b)) { sameSum += d; sameN += 1 }
        else { diffSum += d; diffN += 1 }
      }
    }
    assert(sameSum / sameN < 0.5 * diffSum / diffN,
      s"same=${sameSum / sameN} diff=${diffSum / diffN}")
  }

  test("is deterministic for a fixed seed") {
    val g = TestGraphs.easy(sp)
    val a = Hope.run(g.edges, g.config.k, fastParams)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    val b = Hope.run(g.edges, g.config.k, fastParams)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(a.sameElements(b))
  }

  test("returns a valid k-partition of U") {
    val g = TestGraphs.easy(sp)
    val assign = Hope.run(g.edges, g.config.k, fastParams)
    TestGraphs.assertValidAssignment(assign, g.config.nU, g.config.k)
  }

  test("embedding rows are bit-identical for any input partitioning (3 vs 11)") {
    val g = TestGraphs.weighted(sp)
    def rows(parts: Int) = Block.collectMap(Hope.embed(g.edges.repartition(parts), g.config.k, fastParams))
      .map { case (id, v) => id -> v.map(java.lang.Double.doubleToRawLongBits).toSeq }
    assert(rows(3) == rows(11))
  }
}
