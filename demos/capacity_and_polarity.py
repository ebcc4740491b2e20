"""Tail capacities of the Cauchy boundary, three regimes side by side.

For a ray family the sets  tail_N = {x : x >= N}  form a neighborhood
basis of the boundary point, and  Cap(tail_N)  is nonincreasing in N.
One ladder sweep along the end gives every Cap(tail_N) of a ray exactly;
on a line, one sweep in from the other end's deepest vertex gives lower
bounds, bracketed above through that end's measure. Certified upper
bounds from an analytic ramp extend far beyond the sweep, and a
resistance lower bound certifies positivity.

    ex5.1   caps -> 0        boundary polar
    ex5.3a  caps -> 0.908... positive finite capacity
    ex5.5   caps decay ~ 1/N too slowly for plateau detection;
            only the resistance certificate decides it
"""

from iglab.gallery import build_family
from iglab.potential import boundary_capacity


def show(name):
    fam = build_family(name)
    rep = boundary_capacity(fam, solver_tail_max=128,
                            analytic_tail_max=1 << 22)
    print(f"== {fam.describe()}")
    for seq in rep.per_end:
        print(f"   end {seq.end_label!r}: regime {seq.regime}")
        solver = list(seq.solver_caps())
        for tail, cap in solver[:3] + solver[-1:]:
            print(f"     Cap(tail_{tail:<4d}) = {cap:.9f}")
        d = seq.diagnostics
        if "resistance_lower" in d:
            print(f"     certified lower bound {d['resistance_lower']:.6f}")
        if d.get("upper_below_threshold_at") is not None:
            print(f"     certified upper < 1e-3 from tail "
                  f"{d['upper_below_threshold_at']}")
        if solver:
            e = [e for e in seq.entries if e.solver_cap is not None][-1]
            print(f"     tail_{e.tail_start}: certified upper "
                  f"{e.bracket_upper:.9f}")
    print(f"   boundary regime: {rep.boundary_regime}  "
          f"polarity: {rep.polarity}\n")


def main():
    for name in ("ex5.1", "ex5.3a", "ex5.5"):
        show(name)
    print("ex5.3 glues an infinite-capacity end onto ex5.3a; the union is")
    print("infinite but the finite end still witnesses non-polarity:")
    show("ex5.3")


if __name__ == "__main__":
    main()
