package kspbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.core._
import scala.collection.mutable

/** Wall-clock helpers. */
object Clock {
  def ms[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }
}

/** A [[RefineService]] that times and counts the calls the engine makes into
  * it: the attachment job of a batch (Section 5.3) and one refine call per
  * filter-refine round.
  */
final class TimingRefine(inner: RefineService) extends RefineService {
  var attachmentMs = 0.0
  var refineMs = 0.0
  var refineRounds = 0L
  var pairRequests = 0L
  var subgraphRequests = 0L

  def partialKsp(requests: Seq[PairRequest]): Map[(Int, Int), Seq[Path]] = {
    val (r, t) = Clock.ms(inner.partialKsp(requests))
    refineMs += t
    refineRounds += 1
    pairRequests += requests.size
    subgraphRequests += requests.iterator.map(_.sgIds.size).sum
    r
  }

  def attachmentBounds(v: Int, extraTargets: Set[Int]): Seq[(Int, Double)] =
    attachmentBoundsBatch(Seq((v, extraTargets)))((v, extraTargets))

  override def attachmentBoundsBatch(items: Seq[(Int, Set[Int])]): Map[(Int, Set[Int]), Seq[(Int, Double)]] = {
    val (r, t) = Clock.ms(inner.attachmentBoundsBatch(items))
    attachmentMs += t
    r
  }
}

/** Spark task totals of one job group. */
final class GroupTotals {
  var jobs = 0L
  var tasks = 0L
  var deserMs = 0L
  var runMs = 0L
  var maxRunMs = 0L
  var resultBytes = 0L
}

/** Collects task metrics per job group from Spark's listener bus. */
final class TaskListener extends SparkListener {
  private val groupOfStage = mutable.HashMap.empty[Int, String]
  private val groups = mutable.HashMap.empty[String, GroupTotals]

  private def totals(g: String): GroupTotals = groups.getOrElseUpdate(g, new GroupTotals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("none")
    totals(g).jobs += 1
    e.stageIds.foreach(s => groupOfStage(s) = g)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val t = totals(groupOfStage.getOrElse(e.stageId, "none"))
      t.tasks += 1
      t.deserMs += m.executorDeserializeTime
      t.runMs += m.executorRunTime
      t.maxRunMs = math.max(t.maxRunMs, m.executorRunTime)
      t.resultBytes += m.resultSize
    }
  }

  def group(g: String): GroupTotals = synchronized(groups.getOrElse(g, new GroupTotals))
}
