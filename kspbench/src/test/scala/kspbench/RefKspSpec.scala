package kspbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{TestGraphs, WeightedGraph}

/** The benchmark's reference k shortest paths against exhaustive
  * enumeration on small random graphs, and its answer check on paths it
  * must reject.
  */
class RefKspSpec extends AnyFunSuite {

  private def refOf(g: WeightedGraph): RefGraph = {
    val r = new RefGraph(g.numVertices, g.edges.map(_.u), g.edges.map(_.v), g.initialWeights)
    Array.copy(g.weights, 0, r.weights, 0, g.numEdges)
    r
  }

  test("reference distances equal brute-force KSP on random graphs") {
    for (seed <- 1 to 40) {
      val g = TestGraphs.randomConnected(n = 9 + seed % 5, extraEdges = 6 + seed % 7, seed = seed, maxW = 9)
      // Drift some weights off their integral initial values.
      val rnd = new scala.util.Random(seed)
      g.edges.indices.foreach(e => if (rnd.nextBoolean()) g.weights(e) = g.initialWeights(e) * (0.7 + 0.6 * rnd.nextDouble()))
      val ref = new RefKsp(refOf(g))
      for (s <- 0 until g.numVertices by 3; t <- 0 until g.numVertices by 2 if s != t; k <- Seq(1, 2, 5, 9)) {
        val want = TestGraphs.distances(TestGraphs.bruteKsp(g, s, t, k))
        val got = ref.ksp(s, t, k)
        assert(TestGraphs.distances(got.map(p => repro.core.Path(p.vertices, p.edges, p.distance))) == want,
          s"seed=$seed s=$s t=$t k=$k")
        assert(RefKsp.problem(refOf(g), s, t, got.map(p => (p.vertices, p.edges, p.distance)), got.map(_.distance)).isEmpty)
      }
    }
  }

  test("reference paths on a grid with many ties are simple, distinct and ascending") {
    val g = TestGraphs.grid(5, 5, seed = 3, maxW = 2)
    val rg = refOf(g)
    val got = new RefKsp(rg).ksp(0, 24, 12)
    assert(got.size == 12)
    assert(RefKsp.problem(rg, 0, 24, got.map(p => (p.vertices, p.edges, p.distance)), got.map(_.distance)).isEmpty)
  }

  test("the answer check rejects wrong answers") {
    val g = TestGraphs.grid(3, 3, seed = 5)
    val rg = refOf(g)
    val good = new RefKsp(rg).ksp(0, 8, 2).map(p => (p.vertices, p.edges, p.distance))
    val ref = good.map(_._3)
    assert(RefKsp.problem(rg, 0, 8, good, ref).isEmpty)
    assert(RefKsp.problem(rg, 0, 8, good.reverse, ref.reverse).contains("paths are not ascending"))
    assert(RefKsp.problem(rg, 0, 8, Seq(good.head, good.head), Seq(ref.head, ref.head)).contains("paths are not distinct"))
    assert(RefKsp.problem(rg, 0, 8, good.take(1), ref).exists(_.startsWith("distances")))
    val (vs, es, d) = good.head
    assert(RefKsp.problem(rg, 0, 8, Seq((vs, es, d + 1)) ++ good.tail, ref).exists(_.contains("current sum")))
    assert(RefKsp.problem(rg, 1, 8, good, ref).exists(_.contains("does not run")))
  }
}
