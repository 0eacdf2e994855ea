package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.linalg.{BRow, Block, Local}

/** HOPE+ (Algorithms 2–3): both rounding schemes, eigen stage, convergence. */
class HopePlusSpec extends SparkSpec {

  private lazy val sp = spark
  private val params = HopePlus.Params(powerIters = 8, maxRounds = 30, seed = 3)

  test("FNEM recovers a well-separated planted partition") {
    val g = TestGraphs.easy(sp)
    val assign = HopePlus.run(g.edges, g.config.k, HopePlus.Fnem, params)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.9, s"scores: $s")
  }

  test("SNEM recovers a well-separated planted partition") {
    val g = TestGraphs.easy(sp)
    val assign = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
    val s = Metrics.evaluate(assign, g.uLabels)
    assert(s.ari > 0.9, s"scores: $s")
  }

  test("both variants survive hub-heavy noise") {
    val g = TestGraphs.hubHeavy(sp)
    val (fnem, snem) = HopePlus.runBoth(g.edges, g.config.k, params)
    assert(Metrics.evaluate(fnem, g.uLabels).ari > 0.6)
    assert(Metrics.evaluate(snem, g.uLabels).ari > 0.6)
  }

  test("works on weighted graphs") {
    val g = TestGraphs.weighted(sp)
    val assign = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
    assert(Metrics.evaluate(assign, g.uLabels).ari > 0.85)
  }

  test("leftSingular produces orthonormal columns (relaxed L, Lemma 4.3)") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k)
    assert(Local.maxAbsDiff(Block.gram(l), Local.eye(g.config.k)) < 1e-6)
  }

  test("leftSingular spans the top of XXᵀ: trace test (Ky Fan, Lemma 4.1)") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val k = g.config.k
    val l = HopePlus.leftSingular(x, k)
    // Tr(Lᵀ X Xᵀ L) must equal the sum of the top-k eigenvalues of XᵀX.
    val gramX = Block.gram(x)
    val (_, lam) = Local.symEigDesc(gramX)
    val ltx = Block.pairGram(l, x) // k×β
    val trace = ltx.map(r => r.map(x2 => x2 * x2).sum).sum
    assert(math.abs(trace - lam.take(k).sum) < 1e-6 * math.max(1.0, lam.take(k).sum))
  }

  test("rounding converges well before the iteration cap on easy input") {
    val g = TestGraphs.easy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k).transform(repro.linalg.Block.localize)
    val a30 = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 30)
    val a31 = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 31)
    // Converged: one extra allowed round changes nothing.
    val m = Metrics.contingency(a30, a31.withColumnRenamed("cluster", "label"))
    assert(Metrics.accuracy(m) == 1.0)
  }

  test("is deterministic for a fixed seed") {
    val g = TestGraphs.easy(sp)
    def once() = HopePlus.run(g.edges, g.config.k, HopePlus.Snem, params)
      .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(once().sameElements(once()))
  }

  test("returns a valid k-partition of U (both variants)") {
    val g = TestGraphs.easy(sp)
    val (fnem, snem) = HopePlus.runBoth(g.edges, g.config.k, params)
    TestGraphs.assertValidAssignment(fnem, g.config.nU, g.config.k)
    TestGraphs.assertValidAssignment(snem, g.config.nU, g.config.k)
  }

  test("rounding does not degrade quality versus the greedy seeding") {
    val g = TestGraphs.hubHeavy(sp)
    val x = Hope.embed(g.edges, g.config.k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, g.config.k).transform(repro.linalg.Block.localize)
    val seedOnly = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 0)
    val rounded  = HopePlus.round(l, g.config.k, HopePlus.Snem, maxRounds = 30)
    val s0 = Metrics.evaluate(seedOnly, g.uLabels)
    val s1 = Metrics.evaluate(rounded, g.uLabels)
    assert(s1.ari >= s0.ari - 0.05, s"seed=$s0 rounded=$s1")
  }

  /** Algorithm 3 on the driver over the rows of L: the assignment after
    * each round (index 0 is the greedy seed, Alg. 2), up to convergence or
    * `maxRounds`.
    */
  private def localRounds(l: Array[BRow], k: Int, urt: HopePlus.Urt, maxRounds: Int): Seq[Array[Int]] = {
    def argmaxUnder(t: Local.Mat) = l.map(r => Local.argmax(Local.vecMat(r.vec, t)))
    val history = scala.collection.mutable.ArrayBuffer(argmaxUnder(Local.eye(k)))
    var converged = false
    while (history.length - 1 < maxRounds && !converged) {
      val assign = history.last
      val ltc = Local.zeros(k, k) // Lᵀ C with C's columns scaled by 1/√|C_j|
      for (c <- 0 until k) {
        val members = l.indices.filter(assign(_) == c)
        for (i <- members; a <- 0 until k) ltc(a)(c) += l(i).vec(a) / math.sqrt(members.size.toDouble)
      }
      val t = urt match {
        case HopePlus.Fnem =>
          val (phi, _, psi) = Local.svdSmall(ltc)
          Local.matmul(phi, Local.transpose(psi))
        case HopePlus.Snem => ltc
      }
      val next = argmaxUnder(t)
      converged = next.sameElements(assign)
      history += next
    }
    history.toSeq
  }

  test("one-pass rounding matches a driver-local Algorithm 3 in every round (FNEM and SNEM)") {
    val g = TestGraphs.hubHeavy(sp)
    val k = g.config.k
    val x = Hope.embed(g.edges, k, Hope.Params(powerIters = 8, seed = 3))
    val l = HopePlus.leftSingular(x, k).transform(Block.localize)
    val rows = l.collect().sortBy(_.id)
    Seq(HopePlus.Fnem, HopePlus.Snem).foreach { urt =>
      val history = localRounds(rows, k, urt, maxRounds = 30)
      // Capping the rounds at every count up to one past convergence gives
      // the local assignment of that round: same rounds, same round count.
      (0 to history.length).foreach { cap =>
        val got = HopePlus.round(l, k, urt, cap).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
        val expected = rows.map(_.id).zip(history(math.min(cap, history.length - 1))).toMap
        assert(got == expected, s"${urt.name}, at most $cap rounds")
      }
    }
  }
}
