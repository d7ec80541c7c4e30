package kspbench

import repro.core.{SkeletonGraph, Subgraph, SubgraphDtlp}

/** Index properties the benchmark checks after the build and after every
  * update batch, at the benchmark's own weights.
  */
object IndexCheck {

  /** Theorem 1: every skeleton weight is at most the interior-free shortest
    * distance of its pair in every subgraph that holds both endpoints and
    * joins them. Distances come from the benchmark's own Dijkstra over the
    * subgraph copies held by the program's `Partitioning`, priced at `weights` (global edge ids).
    * Returns the first violations found (empty when the index is sound).
    */
  def theorem1(subgraphs: Seq[Subgraph], skeleton: SkeletonGraph, weights: Array[Double]): Seq[String] = {
    val out = new Violations
    subgraphs.foreach { sg =>
      val local = sg.local
      val nv = sg.numVertices
      val isB = new Array[Boolean](nv)
      sg.boundaryIds.foreach(b => isB(sg.localOf(b)) = true)
      val w = Array.tabulate(local.numEdges)(le => weights(sg.globalEdgeOfLocal(le)))
      val dist = new Array[Double](nv)
      val heap = new MinHeap(64)
      sg.boundaryIds.foreach { bG =>
        val lb = sg.localOf(bG)
        java.util.Arrays.fill(dist, Double.PositiveInfinity)
        dist(lb) = 0.0; heap.clear(); heap.push(0.0, lb)
        while (heap.size > 0) {
          val key = heap.topKey
          val v = heap.pop()
          if (key <= dist(v) && (v == lb || !isB(v))) {
            var i = local.adjOff(v)
            while (i < local.adjOff(v + 1)) {
              val u = local.adjVertex(i)
              val nd = key + w(local.adjEdge(i))
              if (nd < dist(u)) { dist(u) = nd; heap.push(nd, u) }
              i += 1
            }
          }
        }
        sg.boundaryIds.foreach { cG =>
          val d = dist(sg.localOf(cG))
          if (bG < cG && d.isFinite) {
            val ok = skeleton.weightOf(bG, cG) match {
              case Some(sw) => sw <= d + 1e-9 * math.max(1.0, d)
              case None => false
            }
            if (!ok) out.add(s"subgraph ${sg.id}: skeleton ${skeleton.weightOf(bG, cG)} for ($bG,$cG) above distance $d")
          }
        }
      }
    }
    out.result
  }

  /** Every bounding-path distance the EP-Index maintains equals the sum of
    * its edges' current weights.
    */
  def epDistances(indexes: Seq[SubgraphDtlp], weights: Array[Double]): Seq[String] = {
    val out = new Violations
    indexes.foreach { idx =>
      idx.epPaths.foreach { bp =>
        var sum = 0.0
        bp.localEdges.foreach(le => sum += weights(idx.sg.globalEdgeOfLocal(le)))
        if (!RefKsp.close(bp.distance, sum)) out.add(s"bounding path ${bp.pathId}: stored ${bp.distance}, re-priced $sum")
      }
    }
    out.result
  }

  /** The first few violations, then their total. */
  private final class Violations {
    private val shown = Seq.newBuilder[String]
    private var count = 0
    def add(msg: => String): Unit = { count += 1; if (count <= 5) shown += msg }
    def result: Seq[String] = if (count > 5) shown.result() :+ s"... $count violations in all" else shown.result()
  }
}
