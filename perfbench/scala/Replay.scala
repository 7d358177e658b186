package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._
import repro.graph.WGraph

import scala.collection.mutable

/** Direct calls, in the traced run only, of layers that a pass call hides
  * inside itself. Each replays the enclosing call on the same input through
  * the layer's public functions, under `replay` spans, and returns the list
  * of ways its result differs from what the enclosing call returned.
  */
object Replay {

  /** The collect and the CSR build inside `DiffGraph.toWGraph`. */
  def toWGraph(tr: Tracer, df: DataFrame, n: Int, built: WGraph): Seq[String] = {
    val (us, vs, ws) = tr.span("diffgraph.collect", replay = true) {
      val rows = df.select(col("src").cast("long"), col("dst").cast("long"), col("w").cast("double")).collect()
      (rows.map(_.getLong(0).toInt), rows.map(_.getLong(1).toInt), rows.map(_.getDouble(2)))
    }
    val g = tr.span("wgraph.from_edges", replay = true)(WGraph.fromEdges(n, us, vs, ws))
    Checks.expect(Checks.sameGraph(g, built), "WGraph.fromEdges differs from DiffGraph.toWGraph")
  }

  /** The peels of `G_D` and `G_{D+}` inside `DCSGreedy.run`. */
  def dcsGreedy(tr: Tracer, g: WGraph, r: DCSResult): Seq[String] =
    if (!g.wts.exists(_ > 0)) Nil // DCSGreedy returns before peeling
    else {
      val s1 = tr.span("peeling.greedy", replay = true)(Peeling.greedy(g))
      val gp = tr.span("wgraph.positive_part", replay = true)(g.positivePart)
      val s2 = tr.span("peeling.greedy", replay = true)(Peeling.greedy(gp))
      Checks.expect(Checks.close(r.ratio, 2.0 * gp.density(s2.best) / r.density), "DCSGreedy ratio differs from its G_D+ peel") ++
        Checks.expect(r.density >= math.max(g.density(s1.best), g.density(s2.best)) - 1e-9,
          "DCSGreedy density is below one of its peels")
    }

  /** The bounds and the SEACD + Refinement loop inside `NewSea.run`. */
  def newSea(tr: Tracer, gp: WGraph, r: NewSea.MultiResult): Seq[String] = {
    val mu = tr.span("newsea.smart_bounds", replay = true)(NewSea.smartBounds(gp))
    val tau = tr.span("wgraph.core_numbers", replay = true)(gp.coreNumbers)
    val w = tr.span("wgraph.ego_max_weight", replay = true)(gp.egoNetMaxWeight)
    tr.count("newsea.seeds_above_f", mu.count(_ > r.best.f).toDouble)
    val boundsOk = mu.indices.forall(u => mu(u) == tau(u).toDouble * w(u) / (tau(u) + 1.0))
    val (best, inits, errors) = tr.span("seacd.search", replay = true) {
      val order = (0 until gp.n).toArray.sortBy(u => -mu(u))
      val st = new AffinityState(gp)
      val loop = new Loop(tr, st, useReplicator = false)
      var best = AffinityResult(Array.empty, 0.0)
      var k = 0
      while (k < order.length && mu(order(k)) > best.f) {
        val refined = loop.from(order(k))
        if (refined.f > best.f) best = refined
        k += 1
      }
      loop.record()
      (best, k, loop.errors)
    }
    Checks.expect(boundsOk, "NewSea.smartBounds differs from core numbers and ego-net weights") ++
      Checks.expect(best.f == r.best.f && inits == r.initsUsed && errors == r.errors,
        s"replayed NewSEA gives f=${best.f} after $inits inits, NewSea.run f=${r.best.f} after ${r.initsUsed}")
  }

  /** The search and the post-processing inside `NewSea.allInits`. Returns
    * the kept cliques too, for callers that compare a prefix of them.
    */
  def allInits(tr: Tracer, gp: WGraph, useReplicator: Boolean): (NewSea.MultiResult, Seq[AffinityResult]) = {
    val layer = if (useReplicator) "replicator_sea" else "seacd"
    val (best, errors, distinct) = tr.span(s"$layer.search", replay = true) {
      val st = new AffinityState(gp)
      val loop = new Loop(tr, st, useReplicator)
      var best = AffinityResult(Array.empty, 0.0)
      val cliques = mutable.LinkedHashMap.empty[Seq[Int], AffinityResult]
      var u = 0
      while (u < gp.n) {
        val refined = loop.from(u)
        if (refined.f > best.f) best = refined
        val key = refined.supportSet.toSeq
        if (key.nonEmpty && !cliques.contains(key)) cliques(key) = refined
        u += 1
      }
      loop.record()
      tr.count("cliques.distinct", cliques.size.toDouble)
      (best, loop.errors, cliques.values.toSeq)
    }
    val kept = tr.span("cliques.drop_subsets", replay = true)(NewSea.dropSubsetCliques(distinct))
    tr.count("cliques.kept", kept.size.toDouble)
    (NewSea.MultiResult(best, gp.n, errors), kept)
  }

  /** The difference between an `allInits` result and its replay. */
  def sameAllInits(call: (NewSea.MultiResult, Seq[AffinityResult]), replay: (NewSea.MultiResult, Seq[AffinityResult])): Seq[String] = {
    def flat(cs: Seq[AffinityResult]) = cs.map(c => (c.supportSet.toSeq, c.f))
    Checks.expect(call._1.best.f == replay._1.best.f && call._1.errors == replay._1.errors && flat(call._2) == flat(replay._2),
      s"replayed allInits differs: f=${replay._1.best.f} vs ${call._1.best.f}, ${replay._2.size} vs ${call._2.size} cliques")
  }

  /** One initialization: shrink/expand, then refine; times each step. */
  private final class Loop(tr: Tracer, st: AffinityState, useReplicator: Boolean) {
    private val layer = if (useReplicator) "replicator_sea" else "seacd"
    private var searchNs, refineNs = 0L
    private var outer = 0L
    var errors = 0

    def from(u: Int): AffinityResult = {
      st.initAt(u)
      val t0 = System.nanoTime()
      val trace = if (useReplicator) ReplicatorSea.run(st) else Seacd.run(st)
      val t1 = System.nanoTime()
      val refined = Refinement.run(st)
      refineNs += System.nanoTime() - t1
      searchNs += t1 - t0
      outer += trace.seaIterations
      errors += trace.expansionErrors
      refined
    }

    def record(): Unit = {
      tr.count(s"$layer.run_ms", searchNs / 1e6)
      tr.count(s"$layer.outer_iters", outer.toDouble)
      tr.count(s"$layer.expansion_errors", errors.toDouble)
      tr.count("refinement.run_ms", refineNs / 1e6)
    }
  }
}
