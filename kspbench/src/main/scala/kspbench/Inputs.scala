package kspbench

import java.util.SplittableRandom
import repro.core.{KspQuery, WeightUpdate}

/** Inputs of one run, all derived from the run seed: traffic batches and
  * query batches. The program only ever sees the generated batches.
  */
final class Inputs(seed: Long, numVertices: Int) {

  private def rng(stream: Int, round: Int): SplittableRandom =
    new SplittableRandom(seed * 0x9E3779B97F4A7C15L ^ (stream.toLong << 40) ^ round.toLong)

  /** Free-flow redraw: exactly round(alpha·E) distinct edges get
    * `w = w⁰·(1 + U(−tau, tau))`; each delta is taken from the program's
    * current weight of that edge.
    */
  def freeFlow(round: Int, initial: Array[Double], current: Int => Double,
               alpha: Double, tau: Double): Seq[WeightUpdate] = {
    val r = rng(1, round)
    val m = math.round(alpha * initial.length).toInt
    val order = Array.tabulate(initial.length)(identity)
    (0 until m).map { i =>
      val j = i + r.nextInt(order.length - i)
      val e = order(j); order(j) = order(i); order(i) = e
      val w = initial(e) * (1.0 + (2.0 * r.nextDouble() - 1.0) * tau)
      WeightUpdate(e, w, w - current(e))
    }
  }

  /** `size` queries with uniform endpoints (s ≠ t); k alternates 2 and 5. */
  def queries(round: Int, size: Int): Seq[KspQuery] = {
    val r = rng(2, round)
    (0 until size).map { i =>
      val s = r.nextInt(numVertices)
      var t = r.nextInt(numVertices)
      while (t == s) t = r.nextInt(numVertices)
      KspQuery(round.toLong * 1000 + i, s, t, if (i % 2 == 0) 2 else 5)
    }
  }
}
