package kspbench

import scala.collection.mutable

/** The benchmark's own road graph: adjacency built from the edge list and a
  * weight array the benchmark updates itself. It shares no search code with
  * `repro.core`, so the answers it computes are an independent reference.
  */
final class RefGraph(val n: Int, edgeU: Array[Int], edgeV: Array[Int], initial: Array[Double]) {
  val weights: Array[Double] = initial.clone()
  private val off: Array[Int] = {
    val o = new Array[Int](n + 1)
    edgeU.foreach(u => o(u + 1) += 1)
    edgeV.foreach(v => o(v + 1) += 1)
    for (i <- 1 to n) o(i) += o(i - 1)
    o
  }
  private val nbr = new Array[Int](2 * edgeU.length)
  private val eid = new Array[Int](2 * edgeU.length)
  locally {
    val cur = off.clone()
    for (e <- edgeU.indices) {
      nbr(cur(edgeU(e))) = edgeV(e); eid(cur(edgeU(e))) = e; cur(edgeU(e)) += 1
      nbr(cur(edgeV(e))) = edgeU(e); eid(cur(edgeV(e))) = e; cur(edgeV(e)) += 1
    }
  }
  def numEdges: Int = edgeU.length
  def endpoints(e: Int): (Int, Int) = (edgeU(e), edgeV(e))
  def adjStart(v: Int): Int = off(v)
  def adjEnd(v: Int): Int = off(v + 1)
  def adjVertex(i: Int): Int = nbr(i)
  def adjEdge(i: Int): Int = eid(i)

  /** Edge ids joining `a` and `b`. */
  def edgesBetween(a: Int, b: Int): Seq[Int] =
    (off(a) until off(a + 1)).filter(i => nbr(i) == b).map(eid)
}

/** Minimal binary min-heap of (key, vertex) for the reference searches. */
private final class MinHeap(capacity: Int) {
  private var keys = new Array[Double](math.max(16, capacity))
  private var vals = new Array[Int](math.max(16, capacity))
  var size = 0
  def clear(): Unit = size = 0
  def push(k: Double, v: Int): Unit = {
    if (size == keys.length) {
      keys = java.util.Arrays.copyOf(keys, size * 2); vals = java.util.Arrays.copyOf(vals, size * 2)
    }
    var i = size; size += 1
    while (i > 0 && keys((i - 1) / 2) > k) {
      keys(i) = keys((i - 1) / 2); vals(i) = vals((i - 1) / 2); i = (i - 1) / 2
    }
    keys(i) = k; vals(i) = v
  }
  def topKey: Double = keys(0)
  def pop(): Int = {
    val out = vals(0)
    size -= 1
    if (size > 0) {
      val k = keys(size); val v = vals(size)
      var i = 0
      var done = false
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && keys(l + 1) < keys(l)) l + 1 else l
          if (keys(c) < k) { keys(i) = keys(c); vals(i) = vals(c); i = c } else done = true
        }
      }
      keys(i) = k; vals(i) = v
    }
    out
  }
}

/** One reference path: vertex and edge sequences with their distance. */
final case class RefPath(vertices: Vector[Int], edges: Vector[Int], distance: Double)

/** k shortest simple paths by Yen's algorithm with Lawler's rule (spur only
  * from the parent's deviation vertex on). Every spur search is an A* whose
  * heuristic is the exact distance to the target on the whole graph, which
  * stays admissible when vertices and edges are banned.
  */
final class RefKsp(g: RefGraph) {
  private val n = g.n
  private val dist = new Array[Double](n)
  private val prevEdge = new Array[Int](n)
  private val stamp = new Array[Int](n)
  private val closed = new Array[Int](n)
  private val bannedV = new Array[Int](n)
  private var epoch = 0
  private var banEpoch = 0
  private val heap = new MinHeap(1024)

  /** Distances from `t` to every vertex at the current weights. */
  def distancesTo(t: Int): Array[Double] = {
    val d = Array.fill(n)(Double.PositiveInfinity)
    val h = new MinHeap(1024)
    d(t) = 0.0; h.push(0.0, t)
    while (h.size > 0) {
      val key = h.topKey
      val v = h.pop()
      if (key <= d(v)) {
        var i = g.adjStart(v)
        while (i < g.adjEnd(v)) {
          val u = g.adjVertex(i)
          val nd = key + g.weights(g.adjEdge(i))
          if (nd < d(u)) { d(u) = nd; h.push(nd, u) }
          i += 1
        }
      }
    }
    d
  }

  /** A* from `s` to `t` avoiding banned vertices (current ban epoch) and the
    * banned edges; `None` if `t` is unreachable.
    */
  private def spur(s: Int, t: Int, h: Array[Double], bannedE: mutable.Set[Int]): Option[RefPath] = {
    epoch += 1
    heap.clear()
    dist(s) = 0.0; stamp(s) = epoch; prevEdge(s) = -1
    heap.push(h(s), s)
    var found = false
    while (!found && heap.size > 0) {
      val v = heap.pop()
      if (closed(v) != epoch) {
        closed(v) = epoch
        if (v == t) found = true
        else {
          var i = g.adjStart(v)
          while (i < g.adjEnd(v)) {
            val u = g.adjVertex(i); val e = g.adjEdge(i)
            if (bannedV(u) != banEpoch && closed(u) != epoch && !bannedE.contains(e) && h(u).isFinite) {
              val nd = dist(v) + g.weights(e)
              if (stamp(u) != epoch || nd < dist(u)) {
                stamp(u) = epoch; dist(u) = nd; prevEdge(u) = e
                heap.push(nd + h(u), u)
              }
            }
            i += 1
          }
        }
      }
    }
    if (!found) None
    else {
      val vs = mutable.ArrayBuffer(t); val es = mutable.ArrayBuffer.empty[Int]
      var v = t
      while (v != s) {
        val e = prevEdge(v); es += e
        val (a, b) = g.endpoints(e)
        v = if (a == v) b else a
        vs += v
      }
      Some(RefPath(vs.reverseIterator.toVector, es.reverseIterator.toVector, dist(t)))
    }
  }

  /** Up to `k` shortest simple paths from `s` to `t`, ascending. */
  def ksp(s: Int, t: Int, k: Int): Vector[RefPath] = {
    if (s == t) return Vector(RefPath(Vector(s), Vector.empty, 0.0))
    val h = distancesTo(t)
    banEpoch += 1
    val first = spur(s, t, h, mutable.Set.empty)
    if (first.isEmpty) return Vector.empty
    val found = mutable.ArrayBuffer((first.get, 0))
    // Candidates ordered by distance; each keeps its deviation index.
    val cands = mutable.PriorityQueue.empty[(Double, Int, RefPath)](Ordering.by[(Double, Int, RefPath), Double](_._1).reverse)
    val seen = mutable.HashSet(first.get.vertices)
    while (found.size < k) {
      val (last, dev) = found.last
      for (j <- dev until last.vertices.size - 1) {
        val root = last.vertices.take(j + 1)
        val bannedE = mutable.HashSet.empty[Int]
        found.foreach { case (p, _) =>
          if (p.vertices.size > j + 1 && p.vertices.take(j + 1) == root) bannedE += p.edges(j)
        }
        banEpoch += 1
        root.init.foreach(v => bannedV(v) = banEpoch)
        spur(root.last, t, h, bannedE).foreach { sp =>
          val rootDist = last.edges.take(j).iterator.map(g.weights).sum
          val p = RefPath(root.init ++ sp.vertices, last.edges.take(j) ++ sp.edges, rootDist + sp.distance)
          if (seen.add(p.vertices)) cands.enqueue((p.distance, j, p))
        }
      }
      if (cands.isEmpty) return found.map(_._1).toVector
      val (_, j, p) = cands.dequeue()
      found += ((p, j))
    }
    found.map(_._1).toVector
  }
}

object RefKsp {
  /** Distances agree within a relative tolerance. */
  def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-7 * math.max(1.0, math.abs(b))

  /** Why `paths` is not a valid answer to (s, t, k) against the reference
    * distance list `ref`, or `None` when it is: every path must be simple,
    * run s→t over existing edges, and be priced at the current weights;
    * the paths must be distinct and ascending, and their distances must
    * match the reference list.
    */
  def problem(g: RefGraph, s: Int, t: Int, paths: Seq[(Vector[Int], Vector[Int], Double)], ref: Seq[Double]): Option[String] = {
    val bad = paths.iterator.zipWithIndex.flatMap { case ((vs, es, d), i) =>
      if (vs.isEmpty || vs.head != s || vs.last != t) Some(s"path $i does not run $s->$t")
      else if (vs.distinct.size != vs.size) Some(s"path $i is not simple")
      else if (es.size != vs.size - 1) Some(s"path $i has ${es.size} edges for ${vs.size} vertices")
      else if (es.indices.exists(j => !g.edgesBetween(vs(j), vs(j + 1)).contains(es(j)))) Some(s"path $i uses a missing edge")
      else if (!close(d, es.iterator.map(g.weights).sum)) Some(s"path $i distance $d is not its current sum ${es.iterator.map(g.weights).sum}")
      else None
    }
    if (bad.hasNext) return Some(bad.next())
    if (paths.map(_._1).distinct.size != paths.size) return Some("paths are not distinct")
    if (paths.map(_._3).zip(paths.map(_._3).drop(1)).exists { case (a, b) => b < a - 1e-9 }) return Some("paths are not ascending")
    val got = paths.map(_._3)
    if (got.size != ref.size || got.zip(ref).exists { case (a, b) => !close(a, b) })
      Some(s"distances ${got.mkString("[", ", ", "]")} differ from reference ${ref.mkString("[", ", ", "]")}")
    else None
  }
}
