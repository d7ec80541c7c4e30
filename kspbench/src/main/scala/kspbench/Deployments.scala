package kspbench

import org.apache.spark.sql.{Encoders, SparkSession}
import repro.core._
import repro.dist.{SparkDtlp, SparkKspEngine, SparkRefineService}
import scala.collection.mutable

/** One way of serving the index: the facade the program offers, or the same
  * pipeline taken apart into its layers so that each can be timed.
  */
trait Deployment {
  /** Wall time of the build, in seconds. */
  def setupSeconds: Double
  def partitioning: Partitioning
  def skeleton: SkeletonGraph
  /** The per-subgraph indexes when they live in this process. */
  def localIndexes: Option[Seq[SubgraphDtlp]]
  /** Apply one update batch, cache invalidation included. */
  def update(batch: Seq[WeightUpdate]): Unit
  def batch(qs: Seq[KspQuery]): Seq[KspResult]
  /** Where this deployment's index differs from the facade's after `batch`
    * (empty: the build); called outside the timed region. Only a deployment
    * that repeats the facade's steps itself can differ.
    */
  def divergence(batch: Seq[WeightUpdate]): Seq[String] = Seq.empty
  /** Per-layer metrics over `rounds` rounds (traced deployments only). */
  def layerMetrics(rounds: Int): Seq[(String, Double, String)] = Seq.empty
  def close(): Unit = ()
}

object Deployment {
  val Z = 50
  val Xi = 8
  val Mode: LbdMode = LbdMode.Faithful

  /** Skeleton edges whose weight differs from `before`. */
  def changedEdges(skeleton: SkeletonGraph, before: Array[Double]): Int = {
    val w = skeleton.graph.weights
    w.indices.count(i => w(i) != before(i))
  }

  /** Pair → subgraphs that index it, as the facade's MBD fold uses it. */
  def indexingSubgraphs(subs: Seq[SubgraphDtlp]): Map[(Int, Int), Array[Int]] =
    subs.flatMap(idx => idx.pairs.keysIterator.map(_ -> idx.sg.id))
      .groupBy(_._1).map { case (pair, xs) => pair -> xs.map(_._2).toArray }
}

import Deployment._

/** `Dtlp.build` with `KspDg.local`, as a service would run them. */
final class LocalPlain(g: WeightedGraph, cap: Int) extends Deployment {
  private val (dtlp, buildMs) = Clock.ms(Dtlp.build(g, Z, Xi, Mode))
  private val engine = KspDg.local(dtlp, maxIterations = cap)
  def setupSeconds: Double = buildMs / 1e3
  def partitioning: Partitioning = dtlp.partitioning
  def skeleton: SkeletonGraph = dtlp.skeleton
  def localIndexes: Option[Seq[SubgraphDtlp]] = Some(dtlp.subIndexes)
  def update(batch: Seq[WeightUpdate]): Unit = { dtlp.update(batch); engine.invalidateCache() }
  def batch(qs: Seq[KspQuery]): Seq[KspResult] = engine.batch(qs)
}

/** The local pipeline called layer by layer through the same public
  * functions the facade calls, in the same order, each timed from outside.
  *
  * It repeats the steps of `Dtlp.build` and `Dtlp.update` and must change
  * whenever they do. So that a change there cannot go unseen, the facade
  * itself is built on `facadeGraph` (a second copy of the graph) and fed
  * every batch, and `divergence` compares the two skeletons and EP sizes.
  */
final class LocalTraced(g: WeightedGraph, facadeGraph: WeightedGraph, cap: Int) extends Deployment {
  private val (part, partitionMs) = Clock.ms(Partitioner.partition(g, Z))
  private val indexMs = new Array[Double](part.subgraphs.size)
  private val subs = part.subgraphs.map { sg =>
    val (idx, t) = Clock.ms(new SubgraphDtlp(sg, Xi))
    indexMs(sg.id) = t
    idx
  }
  private val (dtlp, skeletonMs) = Clock.ms(new Dtlp(part, Xi, Mode, subs))
  private val epIndexMs = subs.iterator.map(idx => Clock.ms(EpIndex.build(idx.epPaths))._2).sum
  private val tally = new QueryTally(new LocalRefineService(dtlp))
  private val engine = new KspDgEngine(part, dtlp.skeleton, tally.refine, maxIterations = cap)
  private val pairSubgraphs = indexingSubgraphs(subs)
  private val facade = Dtlp.build(facadeGraph, Z, Xi, Mode)

  private var updateMs, foldMs = 0.0
  private var touched, edgesChanged = 0L

  def setupSeconds: Double = (partitionMs + indexMs.sum + skeletonMs) / 1e3
  def partitioning: Partitioning = part
  def skeleton: SkeletonGraph = dtlp.skeleton
  def localIndexes: Option[Seq[SubgraphDtlp]] = Some(subs)

  def update(batch: Seq[WeightUpdate]): Unit = {
    part.graph.applyUpdates(batch)
    val bySg = batch.groupBy(u => part.subgraphOfEdge(u.edgeId)).filter(_._1 >= 0)
    updateMs += Clock.ms(bySg.foreach { case (s, us) => subs(s).update(us, Mode) })._2
    touched += bySg.size
    val before = dtlp.skeleton.graph.weights.clone()
    foldMs += Clock.ms {
      val affected = bySg.keysIterator.flatMap(s => subs(s).pairs.keysIterator).toSet
      val changes = affected.iterator.map { case (a, b) =>
        (a, b, pairSubgraphs((a, b)).iterator.map(s => subs(s).pairs((a, b)).lbd(Mode, subs(s).unitTable)).min)
      }.toSeq
      dtlp.skeleton.updateWeights(changes)
    }._2
    edgesChanged += changedEdges(dtlp.skeleton, before)
    engine.invalidateCache()
  }

  def batch(qs: Seq[KspQuery]): Seq[KspResult] = tally.batch(engine.batch(qs))

  override def divergence(batch: Seq[WeightUpdate]): Seq[String] = {
    facade.update(batch)
    val (mine, theirs) = (dtlp.skeleton, facade.skeleton)
    val e = mine.graph.edges
    val differing = e.indices.count { i =>
      theirs.weightOf(mine.globalOf(e(i).u), mine.globalOf(e(i).v)) != Some(mine.graph.weights(i))
    }
    val when = if (batch.isEmpty) "the build" else "a batch"
    (if (mine.numEdges == theirs.numEdges && differing == 0) Seq.empty
     else Seq(s"traced pipeline differs from Dtlp after $when: $differing of ${mine.numEdges} skeleton edges " +
       s"(Dtlp has ${theirs.numEdges})")) ++
      (if (dtlp.epStorageElements == facade.epStorageElements) Seq.empty
       else Seq(s"traced pipeline keeps ${dtlp.epStorageElements} EP elements, Dtlp ${facade.epStorageElements}"))
  }

  override def layerMetrics(rounds: Int): Seq[(String, Double, String)] = {
    val boundingPaths = subs.iterator.flatMap(_.pairs.valuesIterator).map(_.paths.size.toLong).sum
    val exactPairs = subs.iterator.flatMap(_.pairs.valuesIterator).count(_.exactRefresh)
    Seq(
      ("partitioner.partition_s", partitionMs / 1e3, "s"),
      ("partitioner.subgraphs", part.subgraphs.size.toDouble, "count"),
      ("partitioner.boundary_vertices", part.boundaryVertices.length.toDouble, "count"),
      ("dtlp.subgraph_index_s", indexMs.sum / 1e3, "s"),
      ("dtlp.subgraph_index_max_s", indexMs.max / 1e3, "s"),
      ("dtlp.ep_index_s", epIndexMs / 1e3, "s"),
      ("dtlp.bounding_paths", boundingPaths.toDouble, "count"),
      ("dtlp.exact_refresh_pairs", exactPairs.toDouble, "count"),
      ("dtlp.ep_elements", dtlp.epStorageElements.toDouble, "count"),
      ("skeleton.build_s", skeletonMs / 1e3, "s"),
      ("skeleton.edges", dtlp.skeleton.numEdges.toDouble, "count"),
      ("maintenance.subgraph_update_ms", updateMs / rounds, "ms"),
      ("maintenance.subgraphs_touched", touched.toDouble / rounds, "count"),
      ("maintenance.mbd_fold_ms", foldMs / rounds, "ms"),
      ("maintenance.skeleton_edges_changed", edgesChanged.toDouble / rounds, "count"),
    ) ++ tally.metrics(rounds)
  }
}

/** Query-layer counters of a traced deployment: batch times and iterations
  * here, refine-service calls in the timing wrapper the engine is built on.
  */
final class QueryTally(inner: RefineService) {
  val refine = new TimingRefine(inner)
  private var batchMs = 0.0
  private var queries, iterations = 0L
  private var maxIterations = 0

  def batch(run: => Seq[KspResult]): Seq[KspResult] = {
    val (rs, t) = Clock.ms(run)
    batchMs += t
    queries += rs.size
    iterations += rs.iterator.map(_.iterations.toLong).sum
    maxIterations = math.max(maxIterations, rs.iterator.map(_.iterations).max)
    rs
  }

  /** Query-layer metrics per batch over `rounds` batches. */
  def metrics(rounds: Int): Seq[(String, Double, String)] = Seq(
    ("kspdg.attachment_ms", refine.attachmentMs / rounds, "ms"),
    ("kspdg.refine_ms", refine.refineMs / rounds, "ms"),
    ("kspdg.filter_merge_ms", (batchMs - refine.attachmentMs - refine.refineMs) / rounds, "ms"),
    ("kspdg.refine_rounds", refine.refineRounds.toDouble / rounds, "count"),
    ("kspdg.pair_requests", refine.pairRequests.toDouble / rounds, "count"),
    ("kspdg.subgraph_requests", refine.subgraphRequests.toDouble / rounds, "count"),
    ("kspdg.iterations_per_query", iterations.toDouble / math.max(1L, queries), "ratio"),
    ("kspdg.iterations_max", maxIterations.toDouble, "count"),
  )
}

/** `SparkDtlp.build` with `SparkKspEngine` on the local Spark master. */
final class SparkPlain(spark: SparkSession, g: WeightedGraph, cap: Int) extends Deployment {
  private val (dtlp, buildMs) = Clock.ms(SparkDtlp.build(spark, g, Z, Xi, Mode))
  private val engine = SparkKspEngine(dtlp, maxIterations = cap)
  def setupSeconds: Double = buildMs / 1e3
  def partitioning: Partitioning = dtlp.partitioning
  def skeleton: SkeletonGraph = dtlp.skeleton
  def localIndexes: Option[Seq[SubgraphDtlp]] = None
  def update(batch: Seq[WeightUpdate]): Unit = { dtlp.update(batch); engine.invalidateCache() }
  def batch(qs: Seq[KspQuery]): Seq[KspResult] = engine.batch(qs)
  override def close(): Unit = dtlp.close()
}

/** The Spark deployment with task metrics grouped by phase (build, update,
  * query) from Spark's listener, a timing refine wrapper, and the layers
  * that run outside Spark jobs re-run on their own to time them.
  */
final class SparkTraced(spark: SparkSession, g: WeightedGraph, cap: Int) extends Deployment {
  private val sc = spark.sparkContext
  private val listener = new TaskListener
  sc.addSparkListener(listener)
  private val partitionMs = Clock.ms(Partitioner.partition(g, Z))._2
  sc.setJobGroup("build", "build")
  private val (dtlp, buildMs) = Clock.ms(SparkDtlp.build(spark, g, Z, Xi, Mode))
  sc.setJobGroup("trace", "trace")
  // EP indexing re-run alone on every subgraph, plus the index counts.
  private val perSubgraph = dtlp.indexes.map { idx =>
    val t0 = System.nanoTime()
    EpIndex.build(idx.epPaths)
    val ns = System.nanoTime() - t0
    val ps = idx.pairs.values
    (ns, ps.iterator.map(_.paths.size.toLong).sum, ps.count(_.exactRefresh).toLong, idx.epIndex.storageElements)
  }(Encoders.kryo[(Long, Long, Long, Long)]).collect()
  private val lbds = dtlp.indexes.flatMap(idx => idx.lbds(Mode))(Encoders.kryo[(Int, Int, Double)]).collect()
  private val skeletonMs = Clock.ms(SkeletonGraph.build(lbds.toSeq))._2
  private val tally = new QueryTally(new SparkRefineService(dtlp))
  private val engine = new KspDgEngine(dtlp.partitioning, dtlp.skeleton, tally.refine, maxIterations = cap)

  private var touched, edgesChanged = 0L

  def setupSeconds: Double = buildMs / 1e3
  def partitioning: Partitioning = dtlp.partitioning
  def skeleton: SkeletonGraph = dtlp.skeleton
  def localIndexes: Option[Seq[SubgraphDtlp]] = None

  def update(batch: Seq[WeightUpdate]): Unit = {
    val before = dtlp.skeleton.graph.weights.clone()
    sc.setJobGroup("update", "update")
    dtlp.update(batch)
    engine.invalidateCache()
    touched += batch.iterator.map(u => dtlp.partitioning.subgraphOfEdge(u.edgeId)).filter(_ >= 0).toSet.size
    edgesChanged += changedEdges(dtlp.skeleton, before)
  }

  def batch(qs: Seq[KspQuery]): Seq[KspResult] = {
    sc.setJobGroup("query", "query")
    tally.batch(engine.batch(qs))
  }

  override def layerMetrics(rounds: Int): Seq[(String, Double, String)] = {
    org.apache.spark.kspbench.ListenerBus.drain(sc)
    val build = listener.group("build")
    val upd = listener.group("update")
    val qry = listener.group("query")
    val cores = sc.defaultParallelism
    Seq(
      ("partitioner.partition_s", partitionMs / 1e3, "s"),
      ("partitioner.subgraphs", dtlp.partitioning.subgraphs.size.toDouble, "count"),
      ("partitioner.boundary_vertices", dtlp.partitioning.boundaryVertices.length.toDouble, "count"),
      ("dtlp.subgraph_index_s", build.runMs / 1e3, "s"),
      ("dtlp.subgraph_index_max_s", build.maxRunMs / 1e3, "s"),
      ("dtlp.ep_index_s", perSubgraph.iterator.map(_._1).sum / 1e9, "s"),
      ("dtlp.bounding_paths", perSubgraph.iterator.map(_._2).sum.toDouble, "count"),
      ("dtlp.exact_refresh_pairs", perSubgraph.iterator.map(_._3).sum.toDouble, "count"),
      ("dtlp.ep_elements", perSubgraph.iterator.map(_._4).sum.toDouble, "count"),
      ("skeleton.build_s", skeletonMs / 1e3, "s"),
      ("skeleton.edges", dtlp.skeleton.numEdges.toDouble, "count"),
      ("maintenance.subgraphs_touched", touched.toDouble / rounds, "count"),
      ("maintenance.skeleton_edges_changed", edgesChanged.toDouble / rounds, "count"),
      ("dist.build_core_use", build.runMs / (buildMs * cores), "ratio"),
      ("dist.update_tasks", upd.tasks.toDouble / rounds, "count"),
      ("dist.update_task_deser_ms", upd.deserMs.toDouble / rounds, "ms"),
      ("dist.update_task_run_ms", upd.runMs.toDouble / rounds, "ms"),
      ("dist.refine_jobs", qry.jobs.toDouble / rounds, "count"),
      ("dist.refine_tasks", qry.tasks.toDouble / rounds, "count"),
      ("dist.refine_task_deser_ms", qry.deserMs.toDouble / rounds, "ms"),
      ("dist.refine_result_kb", qry.resultBytes / 1024.0 / rounds, "KB"),
    ) ++ tally.metrics(rounds)
  }

  override def close(): Unit = { dtlp.close(); sc.removeSparkListener(listener) }
}
