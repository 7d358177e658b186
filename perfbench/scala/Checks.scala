package perfbench

import repro.core.AffinityResult
import repro.graph.WGraph

/** Certificate checks, valid at every seed. Each returns the list of failed
  * checks, empty when the answer is certified.
  */
object Checks {

  def close(a: Double, b: Double, rel: Double = 1e-9): Boolean =
    math.abs(a - b) <= rel * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  def expect(ok: Boolean, msg: => String): Seq[String] = if (ok) Nil else Seq(msg)

  /** `f_D(x) = sum over ordered pairs u != v of x_u x_v D(u, v)`, recomputed
    * from the embedding alone.
    */
  def affinity(g: WGraph, emb: Array[(Int, Double)]): Double = {
    var s = 0.0
    for ((u, xu) <- emb; (v, xv) <- emb if u != v) s += xu * xv * g.weight(u, v)
    s
  }

  /** A DCSGA answer: a point on the simplex whose support is a positive
    * clique of `gD`, and whose reported `f` matches the recomputed one.
    */
  def affinityAnswer(what: String, gD: WGraph, gp: WGraph, r: AffinityResult): Seq[String] = {
    val sup = r.supportSet
    val mass = r.embedding.map(_._2).sum
    expect(sup.nonEmpty || gp.numEdges == 0, s"$what: empty support") ++
      expect(gD.isPositiveClique(sup), s"$what: support ${sup.mkString(",")} is not a positive clique") ++
      expect(close(affinity(gp, r.embedding), r.f), s"$what: f=${r.f} but the embedding gives ${affinity(gp, r.embedding)}") ++
      expect(sup.isEmpty || close(mass, 1.0, 1e-6), s"$what: embedding mass $mass is not 1")
  }

  def zeroErrors(what: String, errors: Int): Seq[String] =
    expect(errors == 0, s"$what reported $errors expansion errors")

  /** Two CSR graphs hold the same edges with the same weights. */
  def sameGraph(a: WGraph, b: WGraph): Boolean =
    a.n == b.n && java.util.Arrays.equals(a.offsets, b.offsets) &&
      java.util.Arrays.equals(a.nbrs, b.nbrs) && java.util.Arrays.equals(a.wts, b.wts)

  /** Sizes of an input graph: vertices, edges, positive edges. */
  def size(g: WGraph): Map[String, Any] =
    Map("n" -> g.n, "m" -> g.numEdges, "m_pos" -> g.wts.count(_ > 0) / 2)
}
