"""Walk through the intrinsic-metric machinery on a small gallery family.

An edge-length assignment sigma is *strongly intrinsic* when every vertex
satisfies  sum_y w(x,y) sigma(x,y)^2 <= mu(x).  The two stock choices are

    sigma_0(x,y) = min(Deg(x)^-1/2, Deg(y)^-1/2, 1)
    sigma_1(x,y) = sqrt(min(mu/deg at x, mu/deg at y) / w(x,y))

and both come with a computable certificate (worst vertex, slack).  Run:

    python3 demos/intrinsic_metrics.py [--family ex5.4] [--window 24]
"""

import argparse

import numpy as np

from iglab.forms import cutoff_eta, gradient_sq_all
from iglab.gallery import build_family
from iglab.metrics import (PathMetric, discovered_jump_size, sigma0, sigma1,
                           strongly_intrinsic_check)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="ex5.4")
    ap.add_argument("--window", type=int, default=24)
    args = ap.parse_args()

    fam = build_family(args.family)
    g = fam.truncate(args.window)
    print(f"{fam.describe()}  (truncated to {g.n} vertices)\n")

    for name, lengths in (("sigma_0", sigma0(g)), ("sigma_1", sigma1(g))):
        cert = strongly_intrinsic_check(g, lengths)
        print(f"{name}: strongly intrinsic = {cert.passed}, "
              f"min slack {cert.min_slack:.3e} at vertex {cert.worst_vertex}")

    # path metric induced by sigma_0: distances from the root
    metric = PathMetric(sigma0(g))
    d = metric.distances_from(0)
    print("\ndistances from vertex 0 (first 10):")
    print("  ", np.array2string(d[:10], precision=5))
    print(f"jump size discovered on the realized graph: "
          f"{discovered_jump_size(metric):.6f}")

    # the payoff: cutoffs built from an intrinsic metric have gradient
    # controlled by the measure, |grad eta|^2 <= mu / (R - r)^2
    ecc = float(np.max(d[np.isfinite(d)]))
    r, R = 0.25 * ecc, 0.75 * ecc
    eta = cutoff_eta(metric, 0, r, R)
    worst = float(np.max(gradient_sq_all(eta) - g.mu / (R - r) ** 2))
    print(f"\ncutoff eta with r = {r:.4f}, R = {R:.4f}:")
    print(f"  max (|grad eta|^2 - mu/(R-r)^2) = {worst:.3e}  (<= 0 expected)")


if __name__ == "__main__":
    main()
