package kspbench

import java.util.concurrent.{Callable, Executors}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.roadnet.RoadNetGen
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The KSP-DG benchmark: one closed-loop client on NY-lite (z=50, ξ=8,
  * Faithful LBDs). Each round applies one update batch and then answers one
  * query batch; every answer is checked against the benchmark's own k
  * shortest paths, and the index against Theorem 1 (and, when it lives in
  * this process, against re-priced EP distances) after the build and after
  * every batch.
  *
  * Usage: `kspbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints one JSON object as the last line of standard output.
  */
object Main {

  final case class Workload(name: String, spark: Boolean)

  val Alpha = 0.35
  val Tau = 0.30
  /** Queries per batch: the batch of the query figures in ROADMAP.md and the
    * `bench/` query suites.
    */
  val Queries = 24
  /** The engine's default iteration cap, passed explicitly so that the
    * capped-query check uses the same number.
    */
  val Cap = 5000
  /** Warm-up lasts at least this many rounds and this many seconds. */
  val WarmupRounds = 3
  val WarmupSeconds = 5.0

  val workloads: Seq[Workload] = Seq(
    Workload("churn-local", spark = false),
    Workload("churn-spark", spark = true),
  )

  /** Every per-layer metric with its unit; a layer absent from a workload reads 0. */
  val layerNames: Seq[(String, String)] = Seq(
    "partitioner.partition_s" -> "s", "partitioner.subgraphs" -> "count", "partitioner.boundary_vertices" -> "count",
    "dtlp.subgraph_index_s" -> "s", "dtlp.subgraph_index_max_s" -> "s", "dtlp.ep_index_s" -> "s",
    "dtlp.bounding_paths" -> "count", "dtlp.exact_refresh_pairs" -> "count", "dtlp.ep_elements" -> "count",
    "skeleton.build_s" -> "s", "skeleton.edges" -> "count",
    "maintenance.subgraph_update_ms" -> "ms", "maintenance.subgraphs_touched" -> "count",
    "maintenance.mbd_fold_ms" -> "ms", "maintenance.skeleton_edges_changed" -> "count",
    "kspdg.attachment_ms" -> "ms", "kspdg.refine_ms" -> "ms", "kspdg.filter_merge_ms" -> "ms",
    "kspdg.refine_rounds" -> "count", "kspdg.pair_requests" -> "count", "kspdg.subgraph_requests" -> "count",
    "kspdg.iterations_per_query" -> "ratio", "kspdg.iterations_max" -> "count",
    "dist.build_core_use" -> "ratio", "dist.update_tasks" -> "count", "dist.update_task_deser_ms" -> "ms",
    "dist.update_task_run_ms" -> "ms", "dist.refine_jobs" -> "count", "dist.refine_tasks" -> "count",
    "dist.refine_task_deser_ms" -> "ms", "dist.refine_result_kb" -> "KB",
    "traced.update_ms" -> "ms", "traced.query_batch_ms" -> "ms",
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, { Console.err.println(s"missing --$k"); sys.exit(2) })
    val w = workloads.find(_.name == opt("workload")).getOrElse {
      Console.err.println(s"unknown workload; use one of ${workloads.map(_.name).mkString(", ")}"); sys.exit(2)
    }
    val line = new Run(w, opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1").execute()
    println(line)
    Console.out.flush()
    sys.exit(0)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def usedHeapMb(): Double = {
    val rt = Runtime.getRuntime
    (1 to 3).foreach(_ => System.gc())
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** One run of one workload. */
final class Run(w: Main.Workload, seed: Long, seconds: Double, trace: Boolean) {
  import Main._

  private val graphGen = RoadNetGen.NyLite
  private var correct = true
  private var failedUpdates, failedQueries, cappedQueries, wrongQueries = 0L

  private def fault(msg: String): Unit = { correct = false; Console.err.println(s"[kspbench] $msg") }

  def execute(): String = {
    // The program's graph, and the benchmark's own copies of w⁰ (for the
    // traffic) and of the current weights (for the checks).
    val g = RoadNetGen.generate(graphGen)
    val w0 = g.initialWeights.clone()
    val ref = new RefGraph(g.numVertices, g.edges.map(_.u), g.edges.map(_.v), w0)
    val inputs = new Inputs(seed, g.numVertices)

    val spark = if (w.spark) Some(sparkSession()) else None
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try {
      val heapBefore = usedHeapMb()
      val dep: Deployment = (spark, trace) match {
        case (None, false) => new LocalPlain(g, Cap)
        case (None, true) => new LocalTraced(g, RoadNetGen.generate(graphGen), Cap)
        case (Some(s), false) => new SparkPlain(s, g, Cap)
        case (Some(s), true) => new SparkTraced(s, g, Cap)
      }
      val heapMb = usedHeapMb() - heapBefore
      Console.err.println(f"[kspbench] ${w.name} seed=$seed built in ${dep.setupSeconds}%.2f s, index heap $heapMb%.0f MB")
      (checkIndex(dep, ref, "after build") ++ dep.divergence(Seq.empty)).foreach(fault)

      val refKsp = ThreadLocal.withInitial[RefKsp](() => new RefKsp(ref))
      val updateMs, batchMs = mutable.ArrayBuffer.empty[Double]
      var queries = 0L
      var round = 0
      def runRound(timed: Boolean): Unit = {
        round += 1
        val batch = inputs.freeFlow(round, w0, e => dep.partitioning.graph.weights(e), Alpha, Tau)
        val (_, u) = Clock.ms(dep.update(batch))
        batch.foreach(b => ref.weights(b.edgeId) = b.newWeight)
        val problems = checkIndex(dep, ref, s"after batch $round") ++ dep.divergence(batch)
        if (problems.nonEmpty) { failedUpdates += 1; problems.foreach(fault) }

        val qs = inputs.queries(round, Queries)
        val (rs, t) = Clock.ms(dep.batch(qs))
        if (timed) { updateMs += u; batchMs += t; queries += rs.size }
        val refs = pool.invokeAll(qs.map(q => new Callable[Vector[RefPath]] {
          def call(): Vector[RefPath] = refKsp.get.ksp(q.s, q.t, q.k)
        }).asJava).asScala.map(_.get)
        rs.zip(refs).foreach { case (r, rp) => checkAnswer(r, rp, ref) }
        // The digest lets a traced and an untraced run of one seed be compared.
        val digest = rs.map(_.paths.map(p => math.rint(p.distance * 1e6).toLong).mkString(",")).mkString(";").hashCode
        Console.err.println(f"[kspbench] round $round: update $u%.1f ms, batch $t%.1f ms, answers $digest%08x, " +
          s"iterations ${rs.map(_.iterations).mkString(" ")}")
      }
      // Warm-up rounds are checked and counted but not timed.
      val warm0 = System.nanoTime()
      while (round < WarmupRounds || (System.nanoTime() - warm0) / 1e9 < WarmupSeconds) runRound(timed = false)
      val warmup = round
      val t0 = System.nanoTime()
      while (round == warmup || (System.nanoTime() - t0) / 1e9 < seconds) runRound(timed = true)
      Console.err.println(s"[kspbench] ${w.name} seed=$seed rounds=$round failed updates=$failedUpdates " +
        s"queries: capped=$cappedQueries wrong=$wrongQueries")
      val attempted = round.toLong * (1 + Queries)
      val failed = failedUpdates + failedQueries
      val metrics =
        if (!trace) Seq(
          ("setup_s", dep.setupSeconds, "s"),
          ("update_ms", median(updateMs.toSeq), "ms"),
          ("query_batch_ms", median(batchMs.toSeq), "ms"),
          ("queries_per_s", queries / (batchMs.sum / 1e3), "1/s"),
          ("index_heap_mb", heapMb, "MB"),
        )
        else {
          val measured = dep.layerMetrics(round).map(m => m._1 -> m).toMap ++ Map(
            "traced.update_ms" -> ("traced.update_ms", median(updateMs.toSeq), "ms"),
            "traced.query_batch_ms" -> ("traced.query_batch_ms", median(batchMs.toSeq), "ms"))
          layerNames.map { case (n, u) => measured.getOrElse(n, (n, 0.0, u)) }
        }
      dep.close()
      json(correct, attempted, failed, metrics)
    } finally {
      pool.shutdownNow()
      spark.foreach(_.stop())
    }
  }

  /** Index properties at the benchmark's weights; one message per problem. */
  private def checkIndex(dep: Deployment, ref: RefGraph, when: String): Seq[String] = {
    val pw = dep.partitioning.graph.weights
    val weightsOk = pw.indices.forall(e => pw(e) == ref.weights(e))
    val msgs = (if (weightsOk) Seq.empty else Seq("program weights differ from the applied batches")) ++
      IndexCheck.theorem1(dep.partitioning.subgraphs, dep.skeleton, ref.weights) ++
      dep.localIndexes.toSeq.flatMap(IndexCheck.epDistances(_, ref.weights))
    msgs.map(m => s"index $when: $m")
  }

  /** A query fails when it reaches the iteration cap, or when its answer
    * differs from the reference; only the latter makes the run incorrect.
    */
  private def checkAnswer(r: KspResult, rp: Vector[RefPath], ref: RefGraph): Unit = {
    val q = r.query
    if (r.iterations >= Cap) { failedQueries += 1; cappedQueries += 1 }
    else RefKsp.problem(ref, q.s, q.t, r.paths.map(p => (p.vertices, p.edgeIds, p.distance)), rp.map(_.distance)) match {
      case Some(msg) =>
        failedQueries += 1; wrongQueries += 1
        fault(s"query ${q.id} (${q.s}->${q.t}, k=${q.k}, ${r.iterations} iterations): $msg")
      case None =>
    }
  }

  private def sparkSession(): SparkSession = {
    val work = sys.props.getOrElse("kspbench.work", "work")
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("kspbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
