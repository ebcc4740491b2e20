import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import iglab
from iglab.classify import BUDGETS, classify
from iglab.completeness import (_not_intrinsic, _prefix_lengths,
                                boundary_end, find_geodesic,
                                hopf_rinow_report, lengths_for)
from iglab.errors import InputError
from iglab.gallery import GOLDEN_RUNS, build_family
from iglab.graphs import End, LineFamily, RayFamily, WeightedGraph
from iglab.metrics import (REL_TOL, PathMetric, close, custom_lengths, sigma0,
                           strongly_intrinsic_check)

from conftest import make_random_graph


def unit_path_metric(n):
    g = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)], [1.0] * n)
    return PathMetric(custom_lengths(
        g, {(i, i + 1): 1.0 for i in range(n - 1)}))


# -- lengths_for ----------------------------------------------------------------

def test_lengths_for_choices():
    fam = build_family("ex5.4")
    g = fam.truncate(8)
    assert lengths_for(g, "sigma0").kind == "sigma0"
    assert lengths_for(g, "sigma1").kind == "sigma1"
    assert lengths_for(g, "canonical", fam).kind != ""
    with pytest.raises(InputError):
        lengths_for(g, "nonsense")


def test_lengths_for_natural():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0] * 3)
    lens = lengths_for(g, "natural:4")
    assert lens.of(0, 1) == 0.5
    with pytest.raises(InputError):
        lengths_for(g, "natural:1")      # Deg = 2 at the middle vertex
    with pytest.raises(InputError):
        lengths_for(g, "natural:bogus")
    with pytest.raises(InputError, match="K must be finite and positive"):
        lengths_for(g, "natural:inf")      # 1/sqrt(inf) = 0 is no length


def test_canonical_requires_family():
    g = WeightedGraph(2, [(0, 1, 1.0)], [1.0, 1.0])
    with pytest.raises(InputError):
        lengths_for(g, "canonical")


# -- geodesics -------------------------------------------------------------------

def test_geodesic_on_unit_path():
    m = unit_path_metric(6)
    geo = find_geodesic(m, 0, 4)
    assert geo.vertices == (0, 1, 2, 3, 4)
    assert geo.length == 4.0
    assert geo.verified


def test_geodesic_lexicographic_tie_break():
    # diamond: two equal routes 0-1-3 and 0-2-3; lexicographic order
    # prefers the one through vertex 1
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0),
                          (2, 3, 1.0)], [1.0] * 4)
    lens = custom_lengths(g, {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0,
                              (2, 3): 1.0})
    geo = find_geodesic(PathMetric(lens), 0, 2)
    assert geo.vertices == (0, 1, 3)
    assert geo.length == 2.0
    assert geo.verified


def test_geodesic_prefix_property():
    # every prefix of the returned path must itself be distance-realizing
    fam = build_family("ex5.2")
    g = fam.truncate(32)
    m = PathMetric(fam.canonical_lengths(g))
    geo = find_geodesic(m, 0, 20)
    assert geo.verified
    assert geo.length == pytest.approx(m.distance(0, geo.vertices[-1]),
                                       rel=1e-12)


def hop_counts(g, origin):
    """Combinatorial distances from origin, by breadth-first search."""
    hops = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in hops:
                    hops[y] = hops[x] + 1
                    nxt.append(y)
        frontier = nxt
    return hops


def test_geodesic_property_on_random_graphs():
    # a path leaving the hop-n ball first crosses the hop-n sphere, so the
    # ball-restricted geodesic is as short as the nearest sphere vertex
    rng = np.random.default_rng(1208)
    cases = 0
    for _ in range(300):
        g = make_random_graph(rng)
        m = PathMetric(sigma0(g))
        hops = hop_counts(g, 0)
        for n in range(1, max(hops.values()) + 1):
            geo = find_geodesic(m, 0, n)
            assert geo.verified
            assert all(hops[v] <= n for v in geo.vertices)
            assert hops[geo.vertices[-1]] == n
            nearest = min(m.distance(0, z) for z, k in hops.items() if k == n)
            assert geo.length == pytest.approx(nearest, rel=1e-12)
            cases += 1
    assert cases >= 500


A53_GEODESIC = """
import json
from iglab.completeness import find_geodesic
from iglab.gallery import build_family
from iglab.metrics import PathMetric
fam = build_family("a5.3")
g = fam.truncate(64)
m = PathMetric(fam.canonical_lengths(g))
geo = find_geodesic(m, 0, 1)
nearest = min(m.distance(0, z) for z in g.neighbors(0))   # the hop-1 sphere
print(json.dumps({"path": geo.vertices, "verified": geo.verified,
                  "length": geo.length, "nearest": nearest}))
"""


def test_geodesic_at_tiny_distances_terminates():
    # a5.3 at window 64: hub distances ~2^-64, far below the absolute
    # floor of 1e-15 that metrics.close once had; with that floor a step
    # back passed as shortest and the walk cycled, and every sphere vertex
    # tied as an endpoint, so the path went to tip 100 (8.9e-16) instead
    # of tip 128 (5.4e-20). Run in a child so a regression fails, not hangs.
    src = os.path.dirname(os.path.dirname(iglab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", A53_GEODESIC],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["verified"]
    assert out["path"] == [0, 128]
    assert out["length"] == pytest.approx(out["nearest"], rel=1e-12, abs=0)


def test_verified_flag_is_relative_at_tiny_scale():
    # a5.3 at window 64: every length is below an absolute floor of 1e-15,
    # so a comparison with that floor (the old metrics.close) passed any
    # path as verified. The detour hub -> tip 126 -> extra -> tip 128 is
    # twice as long as the direct edge to tip 128 yet within 1e-15 of it.
    fam = build_family("a5.3")
    g = fam.truncate(64)
    m = PathMetric(fam.canonical_lengths(g))
    detour = [0, 126, fam.extra_id(64), 128]
    prefix, verified = _prefix_lengths(m, detour)
    direct = [m.distance(0, v) for v in detour[1:]]
    assert all(abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-15)
               for a, b in zip(prefix, direct))                 # the old test
    assert not all(close(a, b) for a, b in zip(prefix, direct))
    assert prefix[-1] > 2.0 * direct[-1]
    assert not verified
    assert _prefix_lengths(m, [0, 128, fam.extra_id(64)])[1]


# -- Hopf-Rinow evidence ----------------------------------------------------------

def test_hopf_rinow_incomplete_families():
    # families with a finite-length end: evidence of incompleteness
    expected = {
        "ex5.1": 0.1425477294133217,
        "ex5.2": 0.5714845982939363,
        "ex5.3a": math.sqrt(2.0 / 3.0),
        "ex5.4": 2.0,
    }
    for name, length in expected.items():
        rep = hopf_rinow_report(build_family(name), "canonical", n_max=256)
        assert rep.verdict == "incomplete-evidence", name
        for lab, ts, finite in rep.end_lengths:
            assert finite, (name, lab)
            assert ts.value == pytest.approx(length, rel=1e-9), (name, lab)


def test_hopf_rinow_end_length_certificates():
    rep = hopf_rinow_report(build_family("ex5.3a"), "canonical", n_max=128)
    (label, ts, finite) = rep.end_lengths[0]
    assert label == "plus" and finite
    # exact geometric tail: bound 0, value sqrt(2/3)
    assert ts.value == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
    assert ts.bound <= 1e-15


def test_end_lengths_only_for_canonical_sigma():
    # w = mu = 1 at alpha = 1/2, so the natural:2 lengths are the constant
    # 1/sqrt 2 and the ray is infinitely long; the canonical tail rule
    # (total length 2.414) must not stand in for them
    fam = build_family("ex5.6", {"alpha": 0.5})
    rep = hopf_rinow_report(fam, "natural:2", n_max=64)
    assert rep.end_lengths == [("plus", None, None)]
    assert rep.verdict == "inconclusive"
    assert "certified only for canonical sigma" in " ".join(rep.notes)
    rep = hopf_rinow_report(fam, "canonical", n_max=64)
    assert rep.verdict == "incomplete-evidence"
    assert rep.end_lengths[0][1].value == pytest.approx(1.0 + math.sqrt(2.0))


def test_hopf_rinow_star_is_inapplicable():
    for name in ("a5.1", "a5.3", "a5.4"):
        rep = hopf_rinow_report(build_family(name), "canonical", n_max=64)
        assert rep.verdict == "inapplicable (not locally finite)", name


def test_hopf_rinow_ball_sizes_monotone_in_radius():
    rep = hopf_rinow_report(build_family("ex5.1"), "canonical", n_max=128)
    radii = sorted(rep.ball_sizes)
    final = [rep.ball_sizes[r][-1] for r in radii]
    assert final == sorted(final)
    d = rep.to_dict()
    assert d["verdict"] == rep.verdict
    assert set(d["stabilized"]) == {f"{r:.6g}" for r in radii}


# -- boundary end ------------------------------------------------------------------

def test_boundary_model_ends():
    # ex5.4 and ex5.3a have one end of finite length; ex5.1 has two
    for name in ("ex5.4", "ex5.3a"):
        fam = build_family(name)
        assert boundary_end(fam, "codimension sampling") is fam.ends()[0]
    with pytest.raises(InputError, match="^polarity test needs exactly "
                                         "one boundary end$"):
        boundary_end(build_family("ex5.1"), "polarity test")


def test_boundary_model_rejects_stars():
    with pytest.raises(InputError, match="no linear end structure"):
        boundary_end(build_family("a5.1"), "codimension sampling")


def test_boundary_distances_dyadic():
    end = boundary_end(build_family("ex5.4"), "codimension sampling")
    r = []
    for k in range(30):
        ts = end.sigma_tail(k)
        assert ts.value == 2.0 ** (1 - k)      # exact dyadic values
        assert ts.exact and ts.bound == 0.0
        r.append(ts.value)
    assert np.all(np.diff(r) < 0)


def test_boundary_distances_unknown_end():
    # an end without tail data for its lengths has no known distance to
    # its boundary: the end's own error passes through unchanged
    fam = RayFamily(
        "bare",
        w_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        mu_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(InputError, match="no tail data for the edge lengths"):
        boundary_end(fam, "codimension sampling")


def test_boundary_distances_infinite_end_rejected():
    # a ray with unit lengths has infinite total length: no boundary point
    fam = RayFamily(
        "unitray",
        w_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        mu_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        sigma_fn=lambda x: np.full_like(np.asarray(x, dtype=float),
                                        2.0 ** -0.5),
        sigma_tail_fn=lambda k: math.inf,
        mu_tail_fn=lambda k: math.inf)
    (end,) = fam.ends()
    assert math.isinf(end.sigma_tail(0).upper)
    with pytest.raises(InputError, match="^codimension sampling needs "
                                         "exactly one boundary end$"):
        boundary_end(fam, "codimension sampling")


# -- the intrinsic hypothesis of the completeness verdict ----------------------------

LINEAR_RUNS = [(label, name, params) for label, name, params, _ in GOLDEN_RUNS
               if build_family(name, params).ends()]


@pytest.mark.parametrize("label, name, params", LINEAR_RUNS,
                         ids=[run[0] for run in LINEAR_RUNS])
def test_golden_chains_are_strongly_intrinsic(label, name, params):
    # at the deepest window each budget scans, the chain's check and the
    # certificate on the realized graph both pass
    fam = build_family(name, params)
    for budget in BUDGETS.values():
        window = fam.max_window(budget.hopf_n_max)
        assert _not_intrinsic(fam, window) is None, budget.name
        g = fam.truncate(window)
        assert strongly_intrinsic_check(g, fam.canonical_lengths(g)).passed


@pytest.mark.parametrize("label, name, params", LINEAR_RUNS,
                         ids=[run[0] for run in LINEAR_RUNS])
def test_chain_loads_are_the_certificates_row_sums(label, name, params,
                                                   monkeypatch):
    # at the root and at every interior vertex of the standard window, the
    # sum of w sigma^2 that the chain's check compares with mu is, bit for
    # bit, the row sum strongly_intrinsic_check forms on the realized graph
    fam = build_family(name, params)
    window = fam.max_window(512)
    g = fam.truncate(window)
    lengths = fam.canonical_lengths(g)
    sums = []
    row_fsum = WeightedGraph.row_fsum
    monkeypatch.setattr(WeightedGraph, "row_fsum", lambda self, values:
                        sums.append(row_fsum(self, values)) or sums[-1])
    cert = strongly_intrinsic_check(g, lengths)
    monkeypatch.undo()
    depth, root = fam._depth(window), fam.root_id(window)
    loads = [c.w[:depth] * c.sigma ** 2 for c in fam.chain(depth)]
    ids, want = [root], [sum(t[0] for t in loads)]
    for end, t in zip(fam.ends(), loads):
        ids += [root + fam._sign(end) * k for k in range(1, depth)]
        want += (t[:-1] + t[1:]).tolist()
    assert sums[0][ids].tobytes() == np.array(want).tobytes()
    assert cert.slack[ids].tobytes() == (1.0 - sums[0][ids] / g.mu[ids]
                                         ).tobytes()


def test_the_chain_check_names_the_certificates_first_failure():
    # ex5.3a's rules with unit lengths: the load (w(x-1) + w(x)) / mu(x)
    # is 1 at the root and 6 4^(x-1) at x >= 1
    fam = RayFamily("unit-lengths",
                    w_fn=lambda x: 2.0 ** np.asarray(x, dtype=float),
                    mu_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
                    sigma_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    g = fam.truncate(16)
    cert = strongly_intrinsic_check(g, fam.canonical_lengths(g))
    first = int(np.argmax(cert.slack < -REL_TOL))
    assert first == 1
    assert _not_intrinsic(fam, 16) == f"vertex {first} of end plus"
    # a line with w = 1, sigma = 2^-1/2 and mu = 1 but 1/2 at the root: the
    # load is 1 at every interior vertex and 2 at the root, which holds
    # both ends' first edges
    def heavy_root(x):
        return np.where(np.asarray(x, dtype=float) == 0.0, 0.5, 1.0)

    side = End(lambda x: np.ones(np.shape(x)), heavy_root,
               lambda x: np.full(np.shape(x), 0.5 ** 0.5),
               sigma_tail_fn=lambda k: math.inf, mu_tail_fn=lambda k: math.inf)
    fam = LineFamily("heavy-root", side, side)
    g = fam.truncate(16)
    cert = strongly_intrinsic_check(g, fam.canonical_lengths(g))
    assert int(np.argmax(cert.slack < -REL_TOL)) == g.origin
    assert _not_intrinsic(fam, 16) == "the root"
    rep = classify(fam, budget="quick")
    assert rep.completeness == "inconclusive"
    assert "canonical lengths not strongly intrinsic at the root: the " \
        "completeness theorems need an intrinsic metric" in rep.notes


def test_the_chain_check_passes_a_load_whose_square_overflows():
    # w = 1e-310 and sigma = (0.5 / w)^1/2 = 7.1e154: sigma^2 overflows,
    # but the load w sigma^2 on each edge is 1/2 up to rounding
    sigma = float(np.sqrt(0.5) / np.sqrt(1e-310))
    fam = RayFamily("tiny-weights",
                    w_fn=lambda x: np.full(np.shape(x), 1e-310),
                    mu_fn=lambda x: np.ones(np.shape(x)),
                    sigma_fn=lambda x: np.full(np.shape(x), sigma))
    g = fam.truncate(16)
    assert strongly_intrinsic_check(g, fam.canonical_lengths(g)).passed
    assert _not_intrinsic(fam, 16) is None
