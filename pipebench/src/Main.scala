package repro.pipebench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{count, countDistinct}
import repro.core.{BipartiteGraph, Hope, HopePlus, KMeansD, Metrics}
import repro.data.{BipartiteGen, Catalog}
import repro.linalg.{Block, SubspaceIteration}
import scala.util.Try

/** Benchmark of the HOPE / HOPE+ pipeline as the Table 4/5 benches run it:
  * one shared embedding (`Hope.embed`), then `KMeansD.run` (HOPE) and
  * `HopePlus.leftSingular` → `HopePlus.round(FNEM | SNEM)` (HOPE+).
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *             --cores <n> --trace-file <path>
  *
  * Prints the generated graph's shape, per-repetition timings and digests,
  * and as its last line `RESULT <json>` with the medians over repetitions.
  */
object Main {

  /** Pipeline parameters: `TableRunner`'s bench ones, except 2 power steps
    * instead of 8 so that a run in a fresh JVM fits the benchmark's time.
    */
  final case class Params(k: Int, powerIters: Int = 2, kMeansIters: Int = 25,
                          maxRounds: Int = 30, seed: Long = 2024L) {
    val beta: Int = math.min(5 * k, math.max(k + 2, 160))
  }

  final case class Workload(name: String, spec: Catalog.Spec, scale: Int) {
    /** The catalog analog with |U|, |V| and |E| divided by `scale`. */
    def config(seed: Long): BipartiteGen.Config = spec.cfg.copy(
      nU = spec.cfg.nU / scale, nV = spec.cfg.nV / scale,
      targetEdges = spec.cfg.targetEdges / scale, seed = seed)
  }

  /** Catalog analogs. MIND keeps its shape (|V|/|U|, |E|/|U|, k, size skew,
    * weights) but is scaled down so that one repetition fits in a short run.
    */
  val workloads: Seq[Workload] = Seq(
    Workload("cora", Catalog.cora, scale = 1),
    Workload("mind", Catalog.mind, scale = 16))

  val Methods = Seq("hope", "fnem", "snem")
  /** Spans of a traced run; `pipeline` encloses `embed` … `round_snem`. */
  val Spans = Seq("gen", "pipeline", "q_edges", "top_left_singular", "embed", "kmeans",
                  "left_singular", "round_fnem", "round_snem", "evaluate")
  val SetupGens = 3
  /** Accuracy below this means a method's output is wrong, not just a worse
    * local optimum: random labels score about 1/k.
    */
  val MinAcc = 0.5

  type Outcome = Either[String, (Metrics.Scores, String)]

  final case class Rep(pipelineS: Double, methodS: Map[String, Double], heapMb: Double,
                       outcomes: Map[String, Outcome], spans: Seq[Span])

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val wl = workloads.find(_.name == opts("workload"))
      .getOrElse(sys.error(s"unknown workload ${opts("workload")}; known: ${workloads.map(_.name).mkString(", ")}"))
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val cores = opts.getOrElse("cores", Runtime.getRuntime.availableProcessors.toString).toInt
    val cfg = wl.config(opts.get("seed").map(_.toLong).getOrElse(wl.spec.cfg.seed))
    val params = Params(cfg.k)

    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("pipebench")
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val sc = spark.sparkContext
    val sessionS = (System.nanoTime() - t0) / 1e9

    // Tracing on: every span below also records Spark work.
    val listener = if (traced) Some(new WorkListener) else None
    listener.foreach(sc.addSparkListener)
    def tracer() = new Tracer(sc, listener, cores)

    // The workload's graph is generated and cached several times; set-up
    // time counts the median.
    val genTracer = tracer()
    val g = (1 to SetupGens).map { i =>
      genTracer.span("gen") {
        val g = BipartiteGen.planted(spark, cfg)
        g.edges.cache().count(); g.uLabels.cache().count()
        if (i < SetupGens) { g.edges.unpersist(true); g.uLabels.unpersist(true) }
        g
      }
    }.last
    val genS = median(genTracer.spans.map(_.wallS).toSeq)
    val uIds = uIdsOf(g.uLabels)
    selfTest(uIds, params.k)
    println(f"[$up] session ${sessionS}%.3f s, generate ${genS}%.3f s, master ${sc.master}")
    val shape = g.edges.agg(countDistinct("v"), count("*")).head()
    println(s"[$up] graph ${wl.name} seed ${cfg.seed}: |U|=${uIds.length} |V|=${shape.getLong(0)} " +
            s"|E|=${shape.getLong(1)} k=${params.k} beta=${params.beta}")

    // Repetitions until the next one would end after `seconds`; at least one.
    val heap = new HeapPeak
    val reps = scala.collection.mutable.ArrayBuffer.empty[Rep]
    val tMeasure = System.nanoTime()
    var lastRepS = 0.0
    while (reps.isEmpty || (System.nanoTime() - tMeasure) / 1e9 + lastRepS <= seconds) {
      val tRep = System.nanoTime()
      val tr = tracer()
      val rep = runRep(g.edges, g.uLabels, uIds, params, tr, heap)
      if (traced) extraSpans(g.edges, params, tr)
      reps += rep.copy(spans = tr.spans.toSeq)
      println(f"[$up] rep ${reps.size}%d: pipeline ${rep.pipelineS}%.3f s; " +
        Methods.map(m => s"$m ${rep.outcomes(m).fold(e => s"FAILED($e)", _._2)}").mkString("; "))
      lastRepS = (System.nanoTime() - tRep) / 1e9
    }

    val attempted = reps.size * Methods.size
    val failed = reps.map(r => failures(r.outcomes)).sum
    Methods.foreach { m =>
      val ds = reps.flatMap(_.outcomes(m).toOption.map(_._2)).distinct
      println(s"digest $m: ${if (ds.isEmpty) "none" else ds.mkString(",")} (repetitions agree: ${ds.size == 1})")
    }
    val quality = for (m <- Methods; (metric, get) <- Seq[(String, Metrics.Scores => Double)](
        "acc" -> (_.acc), "nmi" -> (_.nmi), "ari" -> (_.ari))) yield {
      val vs = reps.flatMap(r => scored(r.outcomes).get(m).map(get)).toSeq
      s"${m}_$metric" -> (if (vs.isEmpty) 0.0 else median(vs))
    }
    val accOk = Methods.forall(m => quality.toMap.apply(s"${m}_acc") >= MinAcc)
    val correct = failed == 0 && accOk

    def med(f: Rep => Double) = median(reps.map(f).toSeq)
    val endToEnd = Seq(
      "setup_s" -> (sessionS + genS, "s"),
      "pipeline_s" -> (med(_.pipelineS), "s")) ++
      Methods.map(m => s"${m}_s" -> (med(_.methodS(m)), "s")) ++ Seq(
      "heap_peak_mb" -> (med(_.heapMb), "MB"),
      "success_frac" -> ((attempted - failed).toDouble / attempted, "fraction")) ++
      quality.map { case (n, v) => n -> (v, "score") }

    val perLayer: Seq[(String, (Double, String))] = if (!traced) Nil else Spans.flatMap { s =>
      val perRep =
        if (s == "gen") Seq(genTracer.spans.map(_.counters.toMap)).flatten
        else reps.map(r => r.spans.filter(_.name == s).reduce(_ + _).counters.toMap).toSeq
      perRep.head.keys.toSeq.sorted.map(c => s"$s.$c" -> (median(perRep.map(_(c))), unitOf(c)))
    }
    opts.get("trace-file").foreach(writeTraceFile(_, wl.name, cfg.seed,
      genTracer.spans.toSeq, reps.toSeq, endToEnd, perLayer))

    val metrics = if (traced) perLayer else endToEnd
    println("RESULT " + json(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> json(metrics.map { case (n, (v, u)) =>
        n -> json(Seq("value" -> num(v), "unit" -> str(u))) }))))
    spark.stop()
  }

  /** One repetition: the timed pipeline, then the output check and scoring. */
  def runRep(edges: DataFrame, labels: DataFrame, uIds: Array[Long], p: Params,
             tracer: Tracer, heap: HeapPeak): Rep = {
    val k = p.k
    heap.reset()
    val (x, hope, fnem, snem) = tracer.span("pipeline") {
      val x = Try(tracer.span("embed") {
        val x = Hope.embed(edges, k, Hope.Params(beta = p.beta, powerIters = p.powerIters, seed = p.seed))
          .cache()
        x.count(); x
      })
      val hope = x.flatMap(x => Try(tracer.span("kmeans")(
        KMeansD.run(x, k, maxIters = p.kMeansIters, seed = p.seed))))
      val l = x.flatMap(x => Try(tracer.span("left_singular")(
        HopePlus.leftSingular(x, k).transform(Block.localize))))
      def rounded(span: String, urt: HopePlus.Urt) =
        l.flatMap(l => Try(tracer.span(span)(HopePlus.round(l, k, urt, maxRounds = p.maxRounds))))
      (x, hope, rounded("round_fnem", HopePlus.Fnem), rounded("round_snem", HopePlus.Snem))
    }
    val heapMb = heap.peakMb
    x.foreach(_.unpersist())

    // What a user of one method pays: the shared embedding plus its own stages.
    val w = tracer.wall _
    val methodS = Map(
      "hope" -> (w("embed") + w("kmeans")),
      "fnem" -> (w("embed") + w("left_singular") + w("round_fnem")),
      "snem" -> (w("embed") + w("left_singular") + w("round_snem")))
    val outcomes = Map("hope" -> hope, "fnem" -> fnem, "snem" -> snem).map { case (m, a) =>
      m -> a.toEither.left.map(e => s"${e.getClass.getSimpleName}: ${e.getMessage}")
        .flatMap { df =>
          Check.score(Check.collect(df), uIds, k)(tracer.span("evaluate")(Metrics.evaluate(df, labels)))
        }
    }
    Rep(w("pipeline"), methodS, heapMb, outcomes, Nil)
  }

  /** Standalone calls made only in traced repetitions; they split `embed`
    * into building Q, the power steps, and the remainder.
    */
  def extraSpans(edges: DataFrame, p: Params, tracer: Tracer): Unit = {
    val q = tracer.span("q_edges") {
      val q = BipartiteGraph.qEdges(edges).cache(); q.count(); q
    }
    tracer.span("top_left_singular") {
      SubspaceIteration.topLeftSingular(q, rowCol = "v", colCol = "u", wCol = "q",
        rowIds = BipartiteGraph.vIds(edges), beta = p.beta, powerIters = p.powerIters,
        seed = p.seed)._1.count()
    }
    q.unpersist()
  }

  /** A dropped row, a duplicated row and an out-of-range cluster must each
    * fail the output check, count as failed runs, and give no quality.
    */
  def selfTest(uIds: Array[Long], k: Int): Unit = {
    val good = uIds.map(id => (id, (id % k).toInt))
    def outcome(rows: Array[(Long, Int)]): Outcome =
      Check.score(rows, uIds, k)(Metrics.Scores(1, 1, 1, 1))
    require(outcome(good).isRight, "self-test: a valid assignment fails the check")
    Seq("dropped row" -> good.drop(1),
        "duplicated row" -> good.updated(1, (good(0)._1, good(1)._2)),
        "cluster k" -> good.updated(0, (good(0)._1, k))).foreach { case (what, rows) =>
      val outcomes = Map("hope" -> outcome(good), "fnem" -> outcome(rows))
      require(failures(outcomes) == 1 && scored(outcomes).keySet == Set("hope"),
              s"self-test: a $what is not counted as a failure")
    }
  }

  def failures(outcomes: Map[String, Outcome]): Int = outcomes.values.count(_.isLeft)

  /** Scores of the methods whose output passed the check. */
  def scored(outcomes: Map[String, Outcome]): Map[String, Metrics.Scores] =
    outcomes.collect { case (m, Right((s, _))) => m -> s }

  /** Seconds since the JVM started, to stamp progress lines. */
  def up: String = f"${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f"

  def uIdsOf(labels: DataFrame): Array[Long] = {
    val spark = labels.sparkSession
    import spark.implicits._
    labels.select("id").as[Long].collect().sorted
  }

  def unitOf(counter: String): String = counter match {
    case c if c.endsWith("_s") => "s"
    case c if c.endsWith("_mb") => "MB"
    case "core_util" => "fraction"
    case _ => "count"
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def writeTraceFile(path: String, workload: String, seed: Long, gens: Seq[Span], reps: Seq[Rep],
                     endToEnd: Seq[(String, (Double, String))],
                     perLayer: Seq[(String, (Double, String))]): Unit = {
    def metricObj(ms: Seq[(String, (Double, String))]) = json(ms.map { case (n, (v, _)) => n -> num(v) })
    def spanJson(s: Span) = json(("name" -> str(s.name)) +: s.counters.map { case (c, v) => c -> num(v) })
    val repJson = reps.map { r =>
      json(Seq(
        "pipeline_s" -> num(r.pipelineS),
        "digests" -> json(Methods.map(m => m -> str(r.outcomes(m).fold(e => s"FAILED: $e", _._2)))),
        "spans" -> r.spans.map(spanJson).mkString("[", ",", "]")))
    }
    val body = json(Seq(
      "workload" -> str(workload), "seed" -> seed.toString,
      "end_to_end" -> metricObj(endToEnd), "per_layer" -> metricObj(perLayer),
      "gen" -> gens.map(spanJson).mkString("[", ",", "]"),
      "repetitions" -> repJson.mkString("[", ",", "]")))
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    java.nio.file.Files.write(f.toPath, body.getBytes("UTF-8"))
  }

  def json(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
}
