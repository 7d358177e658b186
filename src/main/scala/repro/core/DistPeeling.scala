package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed densest-subgraph peeling as an iterative DataFrame algorithm
  * (Bahmani, Kumar & Vassilvitskii, PVLDB 2012 — reference [2] of the paper).
  *
  * Each round computes weighted degrees with a shuffle aggregation and drops
  * every vertex whose degree is at most `2 (1 + eps) rho`, where
  * `rho = W(S)/|S|` is the current average degree — `O(log n)` rounds instead
  * of the `n` rounds of exact peeling. On positive-weight graphs this is a
  * `2(1+eps)`-approximation of the densest subgraph. It is the distributed
  * counterpart of the local Algorithm 1; [[DCSGreedy]] does not call it, and
  * the tests check it against the local peel.
  */
object DistPeeling {

  /** One snapshot of the peel: the surviving vertex count and density. */
  final case class Round(size: Long, totalWeight: Double, density: Double)

  /** Result: vertex ids of the best round plus its density and the trace. */
  final case class DistPeelResult(best: Array[Long], density: Double, rounds: Seq[Round])

  /** Peels `edges` (canonical `src < dst`, `w` column) down to empty,
    * returning the densest intermediate vertex set. When no round has a
    * positive density, returns the smallest vertex id alone with density 0,
    * as [[DCSGreedy]] does.
    */
  def densest(edges: DataFrame, eps: Double = 0.1, maxRounds: Int = 200): DistPeelResult = {
    var cur = edges.select("src", "dst", "w").localCheckpoint(true)
    var best: Array[Long] = Array.empty
    var bestDensity = Double.NegativeInfinity
    var minVertex: Array[Long] = Array.empty
    val rounds = scala.collection.mutable.ArrayBuffer.empty[Round]
    var round = 0
    var done = false
    while (!done && round < maxRounds) {
      round += 1
      val degrees = cur
        .select(col("src") as "v", col("w"))
        .unionAll(cur.select(col("dst") as "v", col("w")))
        .groupBy("v")
        .agg(sum("w") as "deg")
        .localCheckpoint(true)
      val agg = degrees.agg(count("*") as "n", sum("deg") as "degSum", min("v") as "minV").collect()(0)
      val nV = agg.getLong(0)
      if (nV == 0) done = true
      else {
        if (round == 1) minVertex = Array(agg.getLong(2))
        // W counts both orientations (paper convention), so W = sum of degrees
        // and rho = W/|S| is the average vertex degree
        val totalW = agg.getDouble(1)
        val rho = totalW / nV
        rounds += Round(nV, totalW, rho)
        if (rho > bestDensity) {
          bestDensity = rho
          best = degrees.select("v").collect().map(_.getLong(0))
        }
        val threshold = (1.0 + eps) * rho
        val keep = degrees.where(col("deg") > threshold).select("v").localCheckpoint(true)
        val kept = keep.count()
        // kept == nV can only happen when rho < 0 (the threshold then sits
        // below the average degree); no progress is possible, so stop
        if (kept == 0L || kept == nV) done = true
        else {
          cur = cur
            .join(keep.withColumnRenamed("v", "src"), Seq("src"))
            .join(keep.withColumnRenamed("v", "dst"), Seq("dst"))
            .select("src", "dst", "w")
            .localCheckpoint(true)
        }
      }
    }
    // a single vertex has density 0, so on graphs where no intermediate
    // density is positive the trivial singleton answer wins
    if (bestDensity <= 0.0) DistPeelResult(minVertex, 0.0, rounds.toSeq)
    else DistPeelResult(best, bestDensity, rounds.toSeq)
  }
}
