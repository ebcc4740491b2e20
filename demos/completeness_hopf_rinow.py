"""Metric completeness evidence and where the Hopf-Rinow dichotomy applies.

Locally finite graphs with an intrinsic path metric satisfy a Hopf-Rinow
type theorem: completeness, ball compactness (= finiteness here) and
geodesic completeness line up.  The verdict reads the total length of
each end: a finite end length is decisive incompleteness evidence, and
ends all certified infinitely long make every ball finite.  The report
adds ball sizes across growing windows as evidence.  The stars of the
appendix are not locally finite, and the report says the dichotomy is
inapplicable instead of pretending.
"""

from iglab.completeness import boundary_end, hopf_rinow_report
from iglab.gallery import build_family


def main():
    for name in ("ex5.1", "ex5.2", "ex5.3a", "ex5.4", "a5.1"):
        fam = build_family(name)
        rep = hopf_rinow_report(fam, "sigma0" if name == "a5.1"
                                else "canonical", n_max=256)
        print(f"{name:7s} verdict: {rep.verdict}")
        for el in rep.to_dict()["end_lengths"]:
            print(f"         end {el['end']!r}: length {el['length']:.6f} "
                  f"(+ tail bound {el['bound']:.2e}), "
                  f"finite = {el['finite']}")
        if not rep.end_lengths:
            print("         (no linear ends)")
    print()

    # ex5.4's boundary point sits at distance r(x) = 2^(1-x) from vertex x
    end = boundary_end(build_family("ex5.4"), "boundary distances")
    tails = {x: end.sigma_tail(x) for x in (1, 5, 10, 20, 30)}
    print("ex5.4 distances to the boundary point "
          f"(exact arithmetic: {all(t.exact for t in tails.values())}):")
    for x, t in tails.items():
        print(f"  r({x:2d}) = {t.value:.10g}  (= 2^{1 - x})")


if __name__ == "__main__":
    main()
