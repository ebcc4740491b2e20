import collections
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import iglab
from iglab.errors import InputError
from iglab.forms import VertexFunction, energy, norm_sq
from iglab.gallery import GOLDEN_RUNS, build_family
from iglab.graphs import WeightedGraph
from iglab.potential import (W_BLOCK, _ramp_upper, _w_sum,
                             boundary_alternative_evidence, boundary_capacity,
                             codim_polarity_test, equilibrium,
                             minkowski_samples)

from conftest import lstsq_capacity, make_random_graph

STANDARD = dict(solver_tail_max=128, analytic_tail_max=1 << 22)


def path_graph(n, w=1.0, mu=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)],
                         [mu] * n)


@pytest.fixture(scope="module")
def cap_reports():
    """boundary_capacity at standard budget, computed once per family."""
    out = {}
    for name in ("ex5.1", "ex5.3a", "ex5.3", "ex5.4", "ex5.5"):
        out[name] = boundary_capacity(build_family(name), **STANDARD)
    out["ex5.6c2"] = boundary_capacity(
        build_family("ex5.6", {"alpha": 2.0, "case": 2}), **STANDARD)
    return out


# -- equilibrium potentials -----------------------------------------------------

def test_path3_hand_oracle():
    # P3, unit weights and measure, U = {2}: minimizing
    # (u0-u1)^2 + (u1-1)^2 + u0^2 + u1^2 + 1 gives e = (1/5, 2/5, 1)
    # and cap^2 = 8/5
    g = path_graph(3)
    res = equilibrium(g, [2])
    assert np.allclose(res.e.values, [0.2, 0.4, 1.0], rtol=1e-12, atol=0)
    assert res.cap_sq == pytest.approx(1.6, rel=1e-14)
    assert res.cap == pytest.approx(math.sqrt(8.0 / 5.0), rel=1e-14)
    assert res.residual <= 1e-12
    assert res.bounds_ok
    assert res.U == (2,)


def test_equilibrium_whole_vertex_set():
    g = path_graph(4, mu=0.5)
    res = equilibrium(g, range(4))
    assert np.array_equal(res.e.values, np.ones(4))
    assert res.cap_sq == pytest.approx(2.0, rel=1e-15)   # energy 0, mass 2


def test_equilibrium_empty_U():
    with pytest.raises(InputError):
        equilibrium(path_graph(3), [])


def test_equilibrium_matches_dense_lstsq():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        g = make_random_graph(rng, n_max=6)
        k = int(rng.integers(1, g.n + 1))
        U = rng.choice(g.n, size=k, replace=False)
        res = equilibrium(g, U)
        cap_ref, u_ref = lstsq_capacity(g, U)
        assert abs(res.cap - cap_ref) <= 1e-9
        assert np.max(np.abs(res.e.values - u_ref)) <= 1e-8


def test_equilibrium_maximum_principle():
    rng = np.random.default_rng(321)
    for _ in range(100):
        g = make_random_graph(rng)
        U = [int(rng.integers(0, g.n))]
        res = equilibrium(g, U)
        assert res.bounds_ok
        v = res.e.values
        assert v.min() >= -1e-10 and v.max() <= 1.0 + 1e-10


def test_capacity_monotone_in_U():
    rng = np.random.default_rng(55)
    for _ in range(50):
        g = make_random_graph(rng)
        a = int(rng.integers(0, g.n))
        b = int(rng.integers(0, g.n))
        small = equilibrium(g, {a})
        big = equilibrium(g, {a, b})
        assert small.cap <= big.cap + 1e-12


def test_equilibrium_extreme_weights():
    # weights spanning 60 orders of magnitude: the equilibrated direct
    # solve must stay accurate (this is where plain CG reports garbage)
    fam = build_family("ex5.3a")
    g = fam.truncate(100)
    (end,) = fam.ends()
    res = equilibrium(g, fam.tail_ids(end, 90, 100))
    assert res.residual <= 1e-9
    assert res.bounds_ok


# -- tail capacity sequences ------------------------------------------------------

def test_ex53a_positive_finite(cap_reports):
    rep = cap_reports["ex5.3a"]
    (seq,) = rep.per_end
    assert seq.regime == "positive-finite"
    assert rep.boundary_regime == "positive-finite"
    assert rep.polarity == "non-polar"
    d = seq.diagnostics
    # certified resistance lower bound: (1/mu(1) + sum 1/w)^(-1/2) = 3^(-1/2)
    assert d["resistance_lower"] == pytest.approx(3.0 ** -0.5, rel=1e-14)
    # frozen solver plateau
    assert d["solver_last"] == pytest.approx(0.9083175302224357, rel=1e-9)
    assert d["solver_last_quartile_change"] < 1e-4
    # lower bound below every certified upper bound
    finite_uppers = [u for u in seq.cummin_upper if math.isfinite(u)]
    assert finite_uppers and min(finite_uppers) >= d["resistance_lower"]


def test_ex53a_solver_noise_floor(cap_reports):
    (seq,) = cap_reports["ex5.3a"].per_end
    note = seq.diagnostics.get("solver_stopped")
    assert note and "float64" in note
    eps = np.finfo(float).eps
    for tail, _cap in seq.solver_caps():
        assert 2.0 ** tail * eps ** 2 <= 1e-12


def test_ex51_zero_capacity(cap_reports):
    rep = cap_reports["ex5.1"]
    assert rep.boundary_regime == "zero"
    assert rep.polarity == "polar"
    for seq in rep.per_end:
        assert seq.regime == "zero"
        d = seq.diagnostics
        assert d["upper_below_threshold_at"] == 2097152       # 2^21
        assert d["upper_loglog_slope"] == pytest.approx(-0.5, abs=0.05)
        assert min(seq.cummin_upper) < 1e-3


def test_ex54_zero_capacity(cap_reports):
    rep = cap_reports["ex5.4"]
    (seq,) = rep.per_end
    assert seq.regime == "zero"
    assert seq.diagnostics["upper_below_threshold_at"] == 262144
    assert min(seq.cummin_upper) == 2.0 ** -12     # exact dyadic bound


def test_ex55_needs_resistance_bound(cap_reports):
    # the solver sequence converges like 1/N, far too slowly for plateau
    # detection; only the resistance certificate decides this family
    (seq,) = cap_reports["ex5.5"].per_end
    assert seq.regime == "positive-finite"
    d = seq.diagnostics
    assert d["solver_last_quartile_change"] > 1e-4
    assert d["resistance_lower"] == pytest.approx(
        math.sqrt(6.0) / math.pi, rel=1e-9)


def test_ex53_mixed_ends(cap_reports):
    rep = cap_reports["ex5.3"]
    regimes = {s.end_label: s.regime for s in rep.per_end}
    assert regimes == {"minus": "infinite", "plus": "positive-finite"}
    # the union of the tails has infinite capacity (minus end dominates),
    # but the plus end still witnesses non-polarity
    assert rep.boundary_regime == "infinite"
    assert rep.polarity == "non-polar"
    plus = [s for s in rep.per_end if s.end_label == "plus"][0]
    assert plus.diagnostics["solver_last"] == pytest.approx(
        0.9239547413519801, rel=1e-9)


def test_ex56_case2(cap_reports):
    (seq,) = cap_reports["ex5.6c2"].per_end
    assert seq.regime == "positive-finite"
    assert seq.diagnostics["resistance_lower"] == pytest.approx(1.0 / 3.0,
                                                                rel=1e-12)
    assert seq.diagnostics["solver_last"] == pytest.approx(
        0.6297495389100214, rel=1e-9)


def test_capacity_entries_internally_consistent(cap_reports):
    for name, rep in cap_reports.items():
        for seq in rep.per_end:
            cm = [u for u in seq.cummin_upper if math.isfinite(u)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(cm, cm[1:])), name
            for e in seq.entries:
                if e.solver_cap is None:
                    continue
                # truncation is a relaxation: solver value never exceeds
                # either certified upper bound
                if e.bracket_upper is not None:
                    assert e.solver_cap <= e.bracket_upper * (1 + 1e-12)
                if e.ramp_upper is not None and math.isfinite(e.ramp_upper):
                    assert e.solver_cap <= e.ramp_upper * (1 + 1e-9), (
                        name, e.tail_start)


def test_ramp_bound_matches_explicit_cutoff():
    # rebuild the analytic ramp on an explicit truncation and check the
    # closed-form energy/mass agree with the graph computation
    fam = build_family("ex5.3a")
    (end,) = fam.ends()
    rep = boundary_capacity(fam, solver_tail_max=16, analytic_tail_max=16)
    (seq,) = rep.per_end
    entry = [e for e in seq.entries if e.tail_start == 16][0]
    n = 16
    window = 64
    g = fam.truncate(window)
    vals = np.zeros(window)
    for x in range(window):
        if x >= n:
            vals[x] = 1.0
        elif x > n // 2:
            vals[x] = (x - n // 2) / (n - n // 2)
    f = VertexFunction(g, vals)
    explicit_sq = energy(f) + norm_sq(f) + end.mu_tail(window).upper
    assert entry.ramp_upper == pytest.approx(math.sqrt(explicit_sq),
                                             rel=1e-9)
    # and the bound really is admissible: it dominates the true capacity
    assert entry.ramp_upper >= entry.solver_cap


def full_ramp_upper(end, N):
    """The ramp bound with every term evaluated: w over [N/2, N), mu over
    (N/2, N) and the certified tail mu_tail(N)."""
    a, b = max(1, N // 2), N
    ks = np.arange(a, b, dtype=float)
    inc = 1.0 / (b - a)
    with np.errstate(over="ignore", invalid="ignore"):
        en = float(np.sum(np.asarray(end.w_fn(ks), dtype=float))) * inc * inc
        mu = np.asarray(end.mu_fn(ks[1:]), dtype=float)
        prof = (ks[1:] - a) * inc
        mass = float(np.sum(mu * prof * prof))
    try:
        tail = end.mu_tail(b).upper
    except InputError:
        return math.inf
    total = en + mass + tail
    return math.sqrt(total) if math.isfinite(total) else math.inf


def test_ramp_mass_skip_is_exact():
    # skipping the measure rule must not change a single bit of the bound
    checked = 0
    for _label, name, params, _check in GOLDEN_RUNS:
        for end in build_family(name, params).ends():
            if end.mu_is_infinite():
                continue
            for p in range(2, 19):
                N = 1 << p
                assert _ramp_upper(end, N) == full_ramp_upper(end, N), \
                    (name, params, end.label, N)
                checked += 1
    assert checked == 12 * 17      # 12 finite-measure ends, N = 4..2^18


def one_array_w_sum(end, a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(np.asarray(end.w_fn(np.arange(a, b, dtype=float)),
                                       dtype=float)))


def test_blocked_w_sum_is_exact():
    # the block sums added pairwise must be numpy's one-array pairwise sum,
    # bit for bit, for spans below, at and above the block size
    checked = 0
    for _label, name, params, _check in GOLDEN_RUNS:
        for end in build_family(name, params).ends():
            if end.mu_is_infinite():
                continue
            for p in range(2, 23):
                a, b = max(1, (1 << p) // 2), 1 << p
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _w_sum(end, a, b)
                assert got == one_array_w_sum(end, a, b), \
                    (name, params, end.label, b)
                checked += 1
    assert checked == 12 * 21      # 12 finite-measure ends, N = 4..2^22
    assert W_BLOCK < 1 << 21        # the grid reaches the blocked path
    # the golden w rules round alike in any order; uniform random weights
    # at many offsets tell the pairwise tree from fsum or a running sum
    table = np.random.default_rng(3).random(1 << 20)
    end = types.SimpleNamespace(w_fn=lambda k: table[k.astype(np.int64)])
    for blocks in (4, 8, 16):
        for a in range(0, table.size - blocks * W_BLOCK + 1, 28693):
            b = a + blocks * W_BLOCK
            assert _w_sum(end, a, b) == one_array_w_sum(end, a, b), (a, b)
    # spans that are not a power-of-two number of blocks: one array
    (end,) = build_family("ex5.5").ends()
    for a, b in ((7, 7 + 3 * W_BLOCK), (3, 3 + 2 * W_BLOCK + 5)):
        assert _w_sum(end, a, b) == one_array_w_sum(end, a, b)


RAMP_GRID_RSS = """
import resource
from iglab.gallery import build_family
from iglab.potential import boundary_capacity
fam = build_family("ex5.4")
boundary_capacity(fam, 128, 1 << 12)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
boundary_capacity(fam, 128, 1 << 22)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KB on Linux")
def test_ramp_grid_memory_is_cache_sized():
    # ex5.4's ramp grid runs to 2^22 (w = 1/8 never stops it); one array
    # of w over [2^21, 2^22) and its index array would take 32 MB
    src = os.path.dirname(os.path.dirname(iglab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RAMP_GRID_RSS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 1024      # KB


def test_boundary_capacity_truncates_each_window_once():
    # ex5.1's two ends and all its tails share the outer windows 4N, 8N, ...
    # and the family realizes each of them once: every call returns one graph
    fam = build_family("ex5.1")
    graphs = collections.defaultdict(list)

    def truncate(window):
        g = type(fam).truncate(fam, window)
        graphs[window].append(g)
        return g

    fam.truncate = truncate
    rep = boundary_capacity(fam, solver_tail_max=128, analytic_tail_max=128)
    visited = set()
    for seq in rep.per_end:
        for e in seq.entries:
            m = 4 * e.tail_start
            while m <= e.outer_window:
                visited.add(m)
                m *= 2
    assert len(rep.per_end) == 2 and len(visited) > 1
    assert set(graphs) == visited
    assert any(len(gs) > 1 for gs in graphs.values())
    assert all(g is gs[0] for gs in graphs.values() for g in gs)


def test_analytic_grid_stops_at_inf_or_zero(cap_reports):
    (seq,) = cap_reports["ex5.3a"].per_end
    assert seq.entries[-1].tail_start == 1024
    assert seq.entries[-1].ramp_upper == math.inf
    note = seq.diagnostics["analytic_stopped"]
    assert "tail 1024" in note and "inf" in note
    (seq,) = boundary_capacity(build_family("codim3"), **STANDARD).per_end
    assert seq.regime == "zero"
    assert seq.entries[-1].tail_start == 4096
    assert seq.entries[-1].ramp_upper == 0.0
    note = seq.diagnostics["analytic_stopped"]
    assert "tail 4096" in note and "is 0" in note
    for seq in cap_reports["ex5.1"].per_end:
        assert seq.entries[-1].tail_start == STANDARD["analytic_tail_max"]
        assert "analytic_stopped" not in seq.diagnostics


def test_thresholds_recorded(cap_reports):
    th = cap_reports["ex5.1"].thresholds
    assert th["polar_threshold"] == 1e-3
    assert th["plateau_change"] == 1e-4


# -- Minkowski codimension ---------------------------------------------------------

def test_ex54_codim_exact_dyadic():
    est = minkowski_samples(build_family("ex5.4"), depth=40)
    assert est.exact
    xs = est.xs.astype(int)
    assert np.all(est.r == 2.0 ** (1.0 - est.xs))
    for x, mu_b, r in zip(xs, est.mu_ball, est.r):
        assert mu_b == pytest.approx(r * r / 3.0, rel=1e-12)
    # two-point slopes are exactly 2; the pointwise ratio carries the
    # 1/ln r correction from the constant 1/3
    assert est.codim_local == pytest.approx(2.0, abs=1e-12)
    assert est.fit_slope == pytest.approx(2.0, abs=1e-9)
    assert abs(est.codim - 2.0) < 0.06
    assert est.closed_form == 2.0


def test_ex55_codim_from_below():
    est = minkowski_samples(build_family("ex5.5"), depth=40)
    assert 1.85 <= est.codim_local <= 2.0
    # ratios increase towards 2 but never cross it
    assert np.all(est.ratios < 2.0)
    deep = est.ratios[len(est.ratios) // 2:]
    assert np.all(np.diff(deep) > 0)


def test_ex56_codim_sweep():
    for alpha in (0.75, 1.0, 2.0):
        est = minkowski_samples(
            build_family("ex5.6", {"alpha": alpha, "case": 1}), depth=40)
        assert abs(est.codim - (2.0 - 1.0 / alpha)) <= 0.05, alpha
        assert est.codim_local == pytest.approx(2.0 - 1.0 / alpha, abs=1e-9)


def test_codim3_family():
    est = minkowski_samples(build_family("codim3"), depth=40)
    assert est.codim_local == pytest.approx(3.0, abs=1e-9)
    assert est.codim > 2.0


def test_codim_to_dict_roundtrips():
    est = minkowski_samples(build_family("ex5.4"), depth=10)
    d = est.to_dict()
    assert d["codim_local"] == est.codim_local
    assert len(d["r"]) == len(d["mu_ball"])


# -- the codim > 2 => polar mechanism ----------------------------------------------

def test_codim3_polarity_mechanism():
    res = codim_polarity_test(build_family("codim3"), depth=30)
    assert res.fires
    assert res.decreasing
    assert res.final_value < 1e-3
    assert all(e.within_bound for e in res.entries)
    vals = [e.value for e in res.entries]
    assert vals[-1] == min(vals)


@pytest.mark.parametrize("depth", [1, 0, -3])
def test_codim_and_polarity_test_reject_shallow_depth(depth):
    fam = build_family("codim3")
    with pytest.raises(InputError, match="needs depth >= 2"):
        minkowski_samples(fam, depth=depth)
    with pytest.raises(InputError, match="needs depth >= 2"):
        codim_polarity_test(fam, depth=depth)


def test_codim_and_polarity_test_at_depth_two():
    fam = build_family("codim3")
    assert minkowski_samples(fam, depth=2).xs.tolist() == [1, 2]
    assert [e.n for e in codim_polarity_test(fam, depth=2).entries] == [2]


def test_codim_needs_two_samples_above_underflow():
    # at alpha = 600 the boundary distance 2^-600 / (2^600 - 1) is 0.0
    # already at x = 1
    with pytest.raises(InputError, match="fewer than 2 samples"):
        minkowski_samples(build_family("ex5.6", {"alpha": 600.0}), depth=40)


def test_polarity_test_needs_single_end():
    with pytest.raises(InputError):
        codim_polarity_test(build_family("ex5.1"), depth=10)


# -- form separation evidence -------------------------------------------------------

def test_boundary_alternative(cap_reports):
    alt = boundary_alternative_evidence(cap_reports["ex5.3a"])
    assert alt.verdict == "forms differ: D(Q) != D(Q^max)"
    alt0 = boundary_alternative_evidence(cap_reports["ex5.1"])
    assert alt0.verdict == "no separation from capacities"
    assert "capacity" in alt0.basis or "0 or infinity" in alt0.basis
