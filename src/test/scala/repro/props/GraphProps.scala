package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestKit
import repro.graph.WGraph
import repro.core._

/** Randomized invariants of the local graph kernel (ScalaCheck, run natively
  * by sbt's test framework).
  */
object GraphProps extends Properties("WGraph") {

  private val genGraph: Gen[WGraph] = for {
    n <- Gen.choose(2, 16)
    p <- Gen.choose(0.1, 0.7)
    seed <- Gen.choose(0L, 100000L)
  } yield TestKit.randomSigned(n, p, 3.0, seed)

  private val genPositive: Gen[WGraph] = for {
    n <- Gen.choose(2, 14)
    p <- Gen.choose(0.2, 0.7)
    seed <- Gen.choose(0L, 100000L)
  } yield TestKit.randomPositive(n, p, 3.0, seed)

  property("totalWeight = sum of weighted degrees") = Prop.forAll(genGraph) { g =>
    val degSum = (0 until g.n).map(g.weightedDegree).sum
    math.abs(degSum - g.totalWeight) < 1e-9
  }

  property("density of V equals totalWeight/n") = Prop.forAll(genGraph) { g =>
    math.abs(g.density(0 until g.n) - g.totalWeight / g.n) < 1e-9
  }

  property("positivePart + negated positivePart partition the edges") = Prop.forAll(genGraph) { g =>
    g.positivePart.numEdges + g.negated.positivePart.numEdges == g.numEdges
  }

  /** Undirected edges `(u, v, w)` with `u < v`, read off the CSR rows. */
  private def edgesOf(g: WGraph): Seq[(Int, Int, Double)] =
    for (u <- 0 until g.n; i <- g.offsets(u) until g.offsets(u + 1) if g.nbrs(i) > u)
      yield (u, g.nbrs(i), g.wts(i))

  private def sameCsr(a: WGraph, b: WGraph): Boolean =
    a.n == b.n && a.offsets.sameElements(b.offsets) && a.nbrs.sameElements(b.nbrs) &&
      java.util.Arrays.equals(a.wts, b.wts)

  property("fromEdges ignores edge order and orientation; positivePart = fromEdges of the positive edges") =
    Prop.forAll(genGraph, Gen.choose(0L, 100000L)) { (g, seed) =>
      val rnd = new scala.util.Random(seed)
      val edges = edgesOf(g)
      val shuffled = rnd.shuffle(edges).map { case (u, v, w) => if (rnd.nextBoolean()) (v, u, w) else (u, v, w) }
      val h = WGraph(g.n, shuffled)
      // reference: every arc of every edge, sorted by (owner, neighbour)
      val arcs = edges.flatMap { case (u, v, w) => Seq((u, v, w), (v, u, w)) }.sortBy(a => (a._1, a._2))
      val offsets = (0 to g.n).map(u => arcs.count(_._1 < u))
      h.offsets.toSeq == offsets && h.nbrs.toSeq == arcs.map(_._2) &&
        java.util.Arrays.equals(h.wts, arcs.map(_._3).toArray) && sameCsr(g, h) &&
        sameCsr(g.positivePart, WGraph(g.n, edges.filter(_._3 > 0.0))) &&
        sameCsr(g.negated.positivePart, WGraph(g.n, edges.collect { case (u, v, w) if w < 0.0 => (u, v, -w) }))
    }

  property("components partition the vertex subset") = Prop.forAll(genGraph) { g =>
    val s = (0 until g.n).filter(_ % 2 == 0)
    val comps = g.componentsOf(s)
    comps.flatten.sorted.sameElements(s.sorted) && comps.forall(_.nonEmpty)
  }

  property("density of a set is a convex combination of its components' densities (Property 1)") =
    Prop.forAll(genGraph) { g =>
      val s = (0 until g.n).toSeq
      val comps = g.componentsOf(s)
      comps.size < 2 || {
        val whole = g.density(s)
        val best = comps.map(c => g.density(c.toSeq)).max
        whole <= best + 1e-9
      }
    }

  property("core number is at most unweighted degree") = Prop.forAll(genGraph) { g =>
    val core = g.coreNumbers
    (0 until g.n).forall(u => core(u) <= g.degreeCount(u))
  }

  property("egoNetMaxWeight dominates own max incident weight") = Prop.forAll(genGraph) { g =>
    val inc = g.maxIncidentWeight
    val ego = g.egoNetMaxWeight
    (0 until g.n).forall(u => ego(u) >= inc(u))
  }

  property("greedy peel never exceeds the exhaustive optimum") = Prop.forAll(genGraph) { g =>
    g.n > 16 || {
      val (_, opt) = TestKit.bruteDensest(g)
      Peeling.greedy(g).density <= opt + 1e-9
    }
  }

  property("greedy peel achieves >= half the optimum on positive graphs") =
    Prop.forAll(genPositive) { g =>
      val (_, opt) = TestKit.bruteDensest(g)
      Peeling.greedy(g).density >= opt / 2 - 1e-9
    }

  property("DCSGreedy returns a connected set with consistent density") =
    Prop.forAll(genGraph) { g =>
      val r = DCSGreedy.run(g)
      g.componentsOf(r.s.toSeq).size == 1 &&
      (r.density <= 0 || math.abs(g.density(r.s.toSeq) - r.density) < 1e-9)
    }
}
