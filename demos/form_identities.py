"""Finite-graph Dirichlet form identities, checked numerically.

On a finite weighted graph the energy form Q(u) = 1/2 sum w (u(x)-u(y))^2
satisfies exact algebraic identities: Green's formula, the Leibniz rule
for gradients, the Caccioppoli inequality, and normal contraction.  This
script evaluates all four on random data and prints the residuals, which
should sit at accumulated-rounding level (~1e-14), far below the 1e-9
acceptance tolerance.
"""

import numpy as np

from iglab.forms import (VertexFunction, caccioppoli_check, energy,
                         form_report, green_identity_check, leibniz_check)
from iglab.gallery import build_family
from iglab.graphs import WeightedGraph


def random_graph(rng, n=8):
    edges = []
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < 0.5:
                edges.append((x, y, float(4.0 * (1.0 - rng.random()))))
    if not edges:
        edges = [(0, 1, 1.0)]
    mu = (2.0 * (1.0 - rng.random(n))).tolist()
    return WeightedGraph(n, edges, mu)


def main():
    rng = np.random.default_rng(7)
    g = random_graph(rng)
    u, v, h = (VertexFunction(g, rng.standard_normal(g.n) * 2.0)
               for _ in range(3))

    gr = green_identity_check(u, v)
    print("Green   : sum (Lu) v mu = sum u (Lv) mu = 1/2 sum grad u.grad v")
    for key, val in gr.terms.items():
        print(f"          {key:12s} {val:+.15e}")
    print(f"          residual {gr.residual:.3e}  passed = {gr.passed}\n")

    lb = leibniz_check(u, v, h)
    print(f"Leibniz : residual {lb.residual:.3e}  passed = {lb.passed}")

    eta = VertexFunction(g, np.clip(np.abs(h.values), 0.0, 1.0))
    cc = caccioppoli_check(u, eta)
    print(f"Caccioppoli slack {cc.terms['slack']:+.3e}  (>= 0 expected)")

    clipped = u.clip()
    print(f"contraction: Q((u v 0) ^ 1) = {energy(clipped):.6f} "
          f"<= Q(u) = {energy(u):.6f}\n")

    # on a truncated infinite graph, form_report also bounds how far the
    # window energy can drift from the infinite-graph value (the "leak")
    fam = build_family("ex5.3a")
    gw = fam.truncate(16)
    f = VertexFunction(gw, np.exp(-0.5 * np.arange(gw.n)))
    rep = form_report(f)
    print(f"window report on {fam.describe()}:")
    print(f"  energy {rep.energy:.6f}, |f|^2 {rep.norm_sq:.6f}, "
          f"Q-norm {rep.qnorm:.6f}")
    print(f"  touches frontier: {rep.touches_frontier}, leak mass "
          f"{rep.leak_mass:.3g}, |Q_inf - Q_win| <= {rep.leak_bound:.3e}")


if __name__ == "__main__":
    main()
