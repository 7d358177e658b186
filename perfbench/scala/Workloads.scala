package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.EgoScan
import repro.core._
import repro.data.SynthGraphs
import repro.graph.{DiffGraph, WGraph}
import repro.harness.Sizes

import scala.collection.mutable

/** One solve's answer (recorded and compared outside the JVM) and its
  * certificate check, run after the pass so it is never timed.
  */
final case class Outcome(answer: Map[String, Any], check: () => Seq[String])

/** One unit of work in a pass: one configuration. */
final case class Solve(key: String, run: Tracer => Outcome)

/** A benchmark workload: set-up builds its inputs, `pass` returns the solves
  * of one pass over them, `endPass` drops what a pass cached.
  */
trait Workload {
  def setup(spark: SparkSession, seed: Long): Unit
  def release(): Unit = ()
  def pass(): Seq[Solve]
  def endPass(): Unit = ()
  /** `(n, m, m+)` of every input graph, by key. */
  val sizes = mutable.LinkedHashMap.empty[String, Map[String, Any]]
}

object Workload {
  /** Dataset scale of every workload: the bench suites' `Sizes.bench`. */
  val scale: Sizes = Sizes.bench

  val names: Seq[String] = Seq("newsea_wiki", "ingest_allinits_dblp")

  def apply(name: String): Workload = name match {
    case "newsea_wiki" => new NewSeaWiki
    case "ingest_allinits_dblp" => new IngestAllInitsDblp
    case other => throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
  }
}

/** A difference-graph configuration of Table II, still a DataFrame. */
final case class Config(key: String, n: Int, df: DataFrame)

/** Configurations plus the DataFrames they cache. */
final case class Composed(configs: Seq[Config], cached: Seq[DataFrame]) {
  def release(): Unit = cached.foreach(_.unpersist(blocking = true))
}

/** The generated datasets of one workload seed, composed into Table II
  * configurations exactly as `repro.harness.Datasets.build` composes them.
  * Seed 0 gives every generator its default seed.
  */
final class Generated(spark: SparkSession, s: Sizes, seed: Long) {
  lazy val dblp = SynthGraphs.dblp(spark, s.dblpN, s.dblpBg, 42 + seed)
  lazy val wiki = SynthGraphs.wiki(spark, s.wikiN, s.wikiBg, 11 + seed)

  private def cfg(ds: SynthGraphs.TwoGraphs, setting: String, gdType: String, df: DataFrame) =
    Config(s"${ds.name}/$setting/$gdType", ds.n, df)

  /** Two of the four DBLP configurations, which between them use
    * `difference`, `discretize` and `negate`.
    */
  def dblpConfigs: Composed = {
    val diff = DiffGraph.difference(dblp.g1, dblp.g2).cache()
    val disc = DiffGraph.discretize(diff).cache()
    Composed(Seq(
      cfg(dblp, "Weighted", "Emerging", diff),
      cfg(dblp, "Discrete", "Disappearing", DiffGraph.negate(disc)),
    ), Seq(diff, disc))
  }

  def wikiConfigs: Composed = {
    val consistent = DiffGraph.difference(wiki.g2, wiki.g1).cache() // positive - conflict
    Composed(Seq(
      cfg(wiki, "-", "Consistent", consistent),
      cfg(wiki, "-", "Conflicting", DiffGraph.negate(consistent)),
    ), Seq(consistent))
  }
}

/** NewSEA (DCSGA) on the two Wiki configurations of Table II, on which the
  * seed bounds prune almost nothing (NewSEA tries nearly every vertex).
  * Set-up builds their `G_D` through `DiffGraph.toWGraph`; a pass takes each
  * positive part and runs `NewSea.run` on it.
  */
final class NewSeaWiki extends Workload {
  private var graphs: Seq[(String, WGraph)] = Nil

  def setup(spark: SparkSession, seed: Long): Unit = {
    val gen = new Generated(spark, Workload.scale, seed)
    val c = gen.wikiConfigs
    graphs = c.configs.map(cf => cf.key -> DiffGraph.toWGraph(cf.df, cf.n))
    c.release()
    graphs.foreach { case (k, g) => sizes(k) = Checks.size(g) }
  }

  override def release(): Unit = graphs = Nil

  def pass(): Seq[Solve] = graphs.map { case (key, g) =>
    Solve(key, tr => {
      val gp = tr.span("wgraph.positive_part")(g.positivePart)
      val r = tr.span("newsea.run")(NewSea.run(gp))
      tr.count("newsea.inits", r.initsUsed.toDouble)
      tr.count("newsea.n", gp.n.toDouble)
      val replay = if (tr.on) Replay.newSea(tr, gp, r) else Nil
      Outcome(
        Map("f" -> r.best.f, "support" -> r.best.supportSet.sorted, "inits" -> r.initsUsed, "errors" -> r.errors),
        () => replay ++ Checks.affinityAnswer("NewSEA", g, gp, r.best) ++ Checks.zeroErrors("NewSEA", r.errors))
    })
  }
}

/** The table pipeline of two DBLP configurations, from DataFrames:
  * compose `G_D` (with the caching `Datasets.build` uses, dropped when the
  * pass ends), compute its Table II row, collect it into a `WGraph`, run
  * `DCSGreedy` and `EgoScan` (Tables IV, VIII, IX), then `NewSea.allInits`
  * with the SEACD and the SEA shrink on its positive part (Table VII's
  * exhaustive columns). Set-up caches the generated edge list.
  */
final class IngestAllInitsDblp extends Workload {
  private var gen: Generated = _
  private var input: Option[DataFrame] = None
  private var composed: Composed = Composed(Nil, Nil)

  def setup(spark: SparkSession, seed: Long): Unit = {
    gen = new Generated(spark, Workload.scale, seed)
    input = Some(gen.dblp.pairs.cache())
    input.foreach(_.count())
  }

  override def release(): Unit = { input.foreach(_.unpersist(blocking = true)); input = None }

  def pass(): Seq[Solve] = {
    composed = gen.dblpConfigs
    composed.configs.map { cf =>
      Solve(cf.key, tr => {
        val st = tr.span("diffgraph.stats")(DiffGraph.stats(cf.df, cf.n))
        val g = tr.span("diffgraph.to_wgraph")(DiffGraph.toWGraph(cf.df, cf.n))
        tr.count("diffgraph.edges_collected", g.numEdges.toDouble)
        val d = tr.span("dcsgreedy.run")(DCSGreedy.run(g))
        tr.count("dcsgreedy.ratio", d.ratio)
        val ego = tr.span("egoscan.run")(EgoScan.run(g))
        val gp = tr.span("wgraph.positive_part")(g.positivePart)
        val cd = tr.span("newsea.all_inits")(NewSea.allInits(gp, useReplicator = false))
        val sea = tr.span("newsea.all_inits")(NewSea.allInits(gp, useReplicator = true))
        val replay = if (!tr.on) Nil else
          Replay.toWGraph(tr, cf.df, cf.n, g) ++ Replay.dcsGreedy(tr, g, d) ++
            Replay.sameAllInits(cd, Replay.allInits(tr, gp, useReplicator = false)) ++
            Replay.sameAllInits(sea, Replay.allInits(tr, gp, useReplicator = true))
        sizes.getOrElseUpdate(cf.key, Checks.size(g))
        val statsRow = Map("n" -> st.n, "m_pos" -> st.mPos, "m_neg" -> st.mNeg,
          "max_w" -> st.maxW, "min_w" -> st.minW, "avg_w" -> st.avgW)
        Outcome(
          Map("stats" -> statsRow, "dcs_size" -> d.s.length, "dcs_rho" -> d.density, "dcs_ratio" -> d.ratio,
            "dcs_set" -> d.s.toSeq, "ego_size" -> ego.s.length, "ego_w" -> ego.totalWeight,
            "seacd_f" -> cd._1.best.f, "seacd_support" -> cd._1.best.supportSet.sorted, "seacd_errors" -> cd._1.errors,
            "seacd_cliques" -> cd._2.size, "sea_f" -> sea._1.best.f, "sea_errors" -> sea._1.errors, "sea_cliques" -> sea._2.size),
          () => replay ++ statsCheck(st, g) ++
            Checks.expect(Checks.close(g.density(d.s.toSeq), d.density), s"rho=${d.density} but g.density gives ${g.density(d.s.toSeq)}") ++
            Checks.expect(d.ratio >= 1.0 - 1e-12, s"DCSGreedy ratio ${d.ratio} < 1") ++
            Checks.expect(Checks.close(g.inducedWeight(ego.s.toSeq), ego.totalWeight, 1e-6),
              s"EgoScan W=${ego.totalWeight} but g.inducedWeight gives ${g.inducedWeight(ego.s.toSeq)}") ++
            Checks.zeroErrors("SEACD+Refine", cd._1.errors) ++
            Checks.affinityAnswer("SEACD+Refine", g, gp, cd._1.best) ++
            Checks.affinityAnswer("SEA+Refine", g, gp, sea._1.best) ++
            Checks.expect(sea._1.best.f <= cd._1.best.f + 1e-6, s"SEA f=${sea._1.best.f} beats SEACD f=${cd._1.best.f}") ++
            (cd._2 ++ sea._2).flatMap(c => Checks.affinityAnswer("clique", gp, gp, c)).distinct)
      })
    }
  }

  override def endPass(): Unit = composed.release()

  /** The Spark aggregate agrees with the collected graph. */
  private def statsCheck(st: repro.graph.GraphStats, g: WGraph): Seq[String] = {
    val m = g.numEdges
    val half = mutable.ArrayBuffer.empty[Double]
    for (u <- 0 until g.n) g.foreachNbr(u) { (v, w) => if (v > u) half += w }
    Checks.expect(st.n == g.n && st.mPos + st.mNeg == m && st.mPos == half.count(_ > 0),
      s"stats n=${st.n} m+=${st.mPos} m-=${st.mNeg} vs graph n=${g.n} m=$m") ++
      Checks.expect(m == 0 || (st.maxW == half.max && st.minW == half.min && Checks.close(st.avgW, half.sum / m)),
        s"stats weights ${st.maxW}/${st.minW}/${st.avgW} differ from the graph")
  }
}
