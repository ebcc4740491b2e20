"""Minkowski codimension of the Cauchy boundary from ball measures.

The estimator samples r(x) = d(x, boundary) and mu(B_r(boundary)) along
the ray and reports three numbers:

  ratios       ln mu(B_r) / ln r        (the definition, pointwise)
  local slopes two-point increments     (kills constant prefactors)
  fit slope    least squares on log-log

The dyadic family has mu(B_r) = r^2/3 exactly: the pointwise ratio drags
the -ln(3)/ln(r) offset along forever, while the local slope is exactly 2
at every depth.  The alpha family sweeps codim 2 - 1/alpha.
"""

import numpy as np

from iglab.gallery import build_family
from iglab.potential import codim_polarity_test, minkowski_samples


def main():
    est = minkowski_samples(build_family("ex5.4"), depth=30)
    print("ex5.4 (dyadic):")
    print(f"  r exactly 2^(1-x):        "
          f"{bool(np.array_equal(est.r, 2.0 ** (1.0 - est.xs)))}")
    print(f"  mu(B_r) = r^2/3 rel err:  "
          f"{np.max(np.abs(est.mu_ball / (est.r ** 2 / 3) - 1)):.2e}")
    print(f"  pointwise ratio at x=30:  {est.ratios[-1]:.6f}"
          f"   (2 - ln3/ln r, converges like 1/x)")
    print(f"  local slope at x=30:      {est.local_slopes[-1]:.15f}")
    print(f"  headline codim:           {est.codim:.4f}\n")

    print("ex5.6 sweep (target codim = 2 - 1/alpha):")
    for alpha in (0.75, 1.0, 2.0):
        fam = build_family("ex5.6", {"alpha": alpha, "case": 1})
        est = minkowski_samples(fam, depth=40)
        target = 2.0 - 1.0 / alpha
        print(f"  alpha {alpha:4.2f}: codim {est.codim:.4f} "
              f"(target {target:.4f}, gap {abs(est.codim - target):.4f})")

    # codim > 2 forces zero capacity: the cutoff sequence of the theorem
    # is computable and its Q-norms must fall below any threshold
    print("\ncodim-3 family: ||eta_n||_Q along the proof's cutoffs")
    res = codim_polarity_test(build_family("codim3"))
    for e in res.entries[::7]:
        print(f"  n = {e.n:2d}: value {e.value:.3e}  "
              f"(proof bound {e.bound:.3e})")
    print(f"  decreasing: {res.decreasing}, final {res.final_value:.2e}, "
          f"polar evidence fires: {res.fires}")


if __name__ == "__main__":
    main()
