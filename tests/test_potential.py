import dataclasses
import math
import os
import subprocess
import sys
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

import iglab
from iglab.classify import resolve_budget
from iglab.errors import FamilyDefinitionError, InputError, NumericalError
from iglab.forms import VertexFunction, energy, norm_sq
from iglab.gallery import GOLDEN_RUNS, build_family
import iglab.potential as potential
from iglab.gallery import run_gallery
import iglab.gallery as gallery
from iglab.graphs import LineFamily, RayFamily, WeightedGraph
from iglab.potential import (OUTER_PER_TAIL, W_BLOCK, _end_ladder,
                             _ramp_upper, _w_sum,
                             boundary_alternative_evidence, boundary_capacity,
                             codim_polarity_test, equilibrium,
                             minkowski_samples)
from iglab.series import geometric_tail

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


@pytest.mark.parametrize("U", [[-1], [3], [1.5], [0, 1.0],
                               np.array([True, False, False])], ids=repr)
def test_equilibrium_rejects_other_ids(U):
    # [-1] used to solve for the last vertex, [1.5] for vertex 1
    with pytest.raises(InputError, match="vertex ids"):
        equilibrium(path_graph(3), U)


@pytest.mark.parametrize("U", [(), set(), range(0), np.array([], dtype=int)],
                         ids=repr)
def test_equilibrium_of_no_vertex(U):
    with pytest.raises(InputError, match="U must be nonempty"):
        equilibrium(path_graph(3), U)


def test_equilibrium_reports_U_sorted_once():
    g = path_graph(5)
    res = equilibrium(g, np.array([4, 1, 4]))
    assert res.U == (1, 4) and all(type(x) is int for x in res.U)
    same = equilibrium(g, {1, 4})
    assert same.cap_sq == res.cap_sq
    assert np.array_equal(same.e.values, res.e.values)


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


def test_boundary_capacity_needs_an_end():
    with pytest.raises(InputError, match="no ends, no boundary capacity"):
        boundary_capacity(build_family("a5.1"))


def test_a_false_resistance_bound_fails_the_cross_check():
    # w = 1, mu = 2^-x: the certified upper bounds on Cap(tail_N) fall
    # under the lower bound (1/mu(1) + 1e-6)^(-1/2) = 0.707 that the
    # declared tail resistance 1e-6 would give
    fam = RayFamily("false-resistance",
                    w_fn=lambda x: np.ones(np.shape(x)),
                    mu_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
                    sigma_tail_fn=lambda k: math.inf,
                    mu_tail_fn=lambda k: 2.0 ** (1 - k), res_upper=1e-6)
    with pytest.raises(NumericalError, match="fall below the certified "
                                             "resistance lower bound 7.071e-01"):
        boundary_capacity(fam)


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


def test_tail_128_entries_and_the_ex53a_pin(cap_reports):
    # the ladder needs no float-resolution guard: these ends, whose solver
    # grid used to stop at tail 64, now have a tail-128 entry
    ex56 = build_family("ex5.6", {"alpha": 1.0, "case": 2})
    for fam, seq in ((build_family("ex5.3a"), cap_reports["ex5.3a"].per_end[0]),
                     (build_family("ex5.3"), cap_reports["ex5.3"].per_end[1]),
                     (ex56, boundary_capacity(ex56, **STANDARD).per_end[0])):
        assert seq.end_label == "plus"
        assert "solver_stopped" not in seq.diagnostics
        assert seq.solver_caps()[-1][0] == 128
        (entry,) = [e for e in seq.entries if e.tail_start == 128]
        end = fam.ends()[-1]
        maxwin = fam.max_window(OUTER_PER_TAIL * STANDARD["solver_tail_max"])
        windows = [m for m in (512, 1024, 2048) if m <= maxwin]
        assert windows
        assert_windows_below(entry, [window_value(fam, end, 128, m)
                                     for m in windows])
    (seq,) = cap_reports["ex5.3a"].per_end
    (entry,) = [e for e in seq.entries if e.tail_start == 128]
    assert abs(entry.solver_cap_sq - 0.8250407357089241) <= 4 * math.ulp(0.8)


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
        0.9239618173810163, rel=1e-9)


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
                # either certified upper bound, and every one has a bracket
                assert e.bracket_upper is not None, (name, e.tail_start)
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
    # bit for bit, for spans below, at and above the block size, on every
    # golden rule with its declared sum stripped; a declared sum must be
    # that blocked value at every span of the deep grid
    checked = declared = 0
    for _label, name, params, _check in GOLDEN_RUNS:
        for end in build_family(name, params).ends():
            if end.mu_is_infinite():
                continue
            bare = dataclasses.replace(end, w_sum_fn=None)
            for p in range(2, 25 if end.w_sum_fn else 23):
                a, b = max(1, (1 << p) // 2), 1 << p
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _w_sum(bare, a, b)
                if p < 23:
                    assert got == one_array_w_sum(end, a, b), \
                        (name, params, end.label, b)
                    checked += 1
                if end.w_sum_fn:
                    assert end.w_sum_fn(a, b) == got, \
                        (name, params, end.label, b)
                    declared += 1
    assert checked == 12 * 21      # 12 finite-measure ends, N = 4..2^22
    assert declared == 7 * 23      # ex5.1 twice, ex5.4, ex5.5, ex5.6 case 1
    assert W_BLOCK < 1 << 21        # the grid reaches the blocked path
    # the golden w rules round alike in any order; uniform random weights
    # at many offsets tell the pairwise tree from fsum or a running sum
    table = np.random.default_rng(3).random(1 << 20)
    end = types.SimpleNamespace(w_fn=lambda k: table[k.astype(np.int64)],
                                w_sum_fn=None)
    for blocks in (4, 8, 16):
        for a in range(0, table.size - blocks * W_BLOCK + 1, 28693):
            b = a + blocks * W_BLOCK
            assert _w_sum(end, a, b) == one_array_w_sum(end, a, b), (a, b)
    # spans that are not a power-of-two number of blocks: one array
    (end,) = build_family("ex5.5").ends()
    end = dataclasses.replace(end, w_sum_fn=None)
    for a, b in ((7, 7 + 3 * W_BLOCK), (3, 3 + 2 * W_BLOCK + 5)):
        assert _w_sum(end, a, b) == one_array_w_sum(end, a, b)


def exact_sum(values):
    """The correctly rounded sum of floats, as series.prefix_fsums takes
    it: each float's integer ratio over the largest (power-of-two)
    denominator, an exact int sum, and one int true division."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return sum(n * (den // d) for n, d in ratios) / den


def declared_ends():
    """(label, end) for each golden end that declares a w sum, once per
    rule."""
    out = {}
    for label, name, params, _check in GOLDEN_RUNS:
        for end in build_family(name, params).ends():
            if end.w_sum_fn is not None:
                out.setdefault((name, end.w_sum_fn.__code__), (label, end))
    return list(out.values())


@pytest.mark.parametrize("label, end", declared_ends(),
                         ids=[label for label, _ in declared_ends()])
def test_declared_w_sums_are_correctly_rounded(label, end):
    # on seeded spans off the dyadic grid, out to 2^30, a declared sum is
    # the correctly rounded sum of the floats the rule returns; it may be
    # None (no closed form) only past the deep grid's last point, 2^24
    rng = np.random.default_rng(30)
    spans = [(a, a + int(rng.integers(1, 1 << 18)))
             for a in rng.integers(0, 1 << 12, 4).tolist()]
    spans += [(b - int(rng.integers(1, 3000)), b) for top in (24, 30)
              for b in rng.integers(3000, 1 << top, 30).tolist()]
    for a, b in spans:
        got = end.w_sum_fn(a, b)
        if got is None:
            assert b > 1 << 24, (a, b)
            continue
        want = exact_sum(np.asarray(end.w_fn(np.arange(a, b, dtype=float)),
                                    dtype=float).tolist())
        assert got.hex() == want.hex(), (a, b)


RAMP_UPPER = potential._ramp_upper


class WCounter:
    """Wraps w rules to count the points they are evaluated on: inside
    potential._ramp_upper (ramp) and elsewhere (other)."""

    def __init__(self):
        self.ramp = self.other = 0
        self.in_ramp = False

    def ramp_upper(self, end, n):
        self.in_ramp = True
        try:
            return RAMP_UPPER(end, n)
        finally:
            self.in_ramp = False

    def wrap(self, fam):
        """fam with each end's w rule counted, one wrapper per end."""
        for end in fam.ends():
            end.w_fn = self.counted(end.w_fn)
        return fam

    def counted(self, fn):
        def w_fn(x):
            if self.in_ramp:
                self.ramp += np.size(x)
            else:
                self.other += np.size(x)
            return fn(x)
        return w_fn


def test_declared_w_sums_keep_the_rule_out_of_the_ramp(monkeypatch):
    # at every budget the ramp grid reads a declared end's sum, not its w
    # rule; a standard gallery then evaluates w on few points
    counter = WCounter()
    monkeypatch.setattr(potential, "_ramp_upper", counter.ramp_upper)
    runs = [(label, name, params) for label, name, params, _ in GOLDEN_RUNS
            if any(end.w_sum_fn for end in build_family(name, params).ends())]
    assert len(runs) == 6       # ex5.1, ex5.4, ex5.5, three ex5.6 case 1
    for budget in ("quick", "standard", "deep"):
        bud = resolve_budget(budget)
        for label, name, params in runs:
            fam = counter.wrap(build_family(name, params))
            boundary_capacity(fam, bud.solver_tail_max, bud.analytic_tail_max)
            assert counter.ramp == 0, (budget, label)
            assert counter.other > 0
    # the undeclared ends' grids stop within a few thousand points
    build = gallery.build_family
    monkeypatch.setattr(gallery, "build_family",
                        lambda *args: counter.wrap(build(*args)))
    counter.ramp = counter.other = 0
    assert run_gallery(budget="standard").exit_code == 0
    assert 0 < counter.ramp + counter.other <= 100_000, \
        (counter.ramp, counter.other)


RAMP_GRID_RSS = """
import resource
from iglab.gallery import build_family
from iglab.graphs import RayFamily
from iglab.potential import boundary_capacity
(end,) = build_family("ex5.4").ends()
fam = RayFamily("ex5.4", end.w_fn, end.mu_fn, sigma_fn=end.sigma_fn,
                sigma_tail_fn=end.sigma_tail_fn, mu_tail_fn=end.mu_tail_fn)
assert fam.ends()[0].w_sum_fn is None
boundary_capacity(fam, 128, 1 << 12)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
boundary_capacity(fam, 128, 1 << 22)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KB on Linux")
def test_ramp_grid_memory_is_cache_sized():
    # ex5.4's rules without their declared w sum: the ramp grid runs to
    # 2^22 (w = 1/8 never stops it) on the blocked path, where one array
    # of w over [2^21, 2^22) and its index array would take 32 MB
    src = os.path.dirname(os.path.dirname(iglab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RAMP_GRID_RSS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 1024      # KB


# -- the ladder sweep, against one solve per window and exact arithmetic ----------

def end_mu(fam, end, depth):
    """The end's mu on its vertices 0..depth, as a realization of this
    depth reads it (vertex 0 is the root)."""
    chains = fam.chain(depth)
    mu = chains[fam.ends().index(end)].mu.tolist()
    mu[0] = float(chains[-1].mu[0])         # the root has the last end's
    return mu


def window_value(fam, end, n_tail, window):
    """Cap_M(tail_N)^2 on truncate(window) from its sweep: the ladder plus
    the tail's measure inside the window."""
    depth = fam._depth(window)
    conds = _end_ladder(fam, end, depth)
    return conds[n_tail - 1] + math.fsum(end_mu(fam, end, depth)[n_tail:])


def assert_windows_below(entry, values):
    """Each window's value is a lower bound for the entry's tail, so none
    exceeds the entry's value or its certified bracket (a rounded square
    root, whose square may fall an ulp short)."""
    for v in values:
        assert v <= entry.solver_cap_sq * (1 + 1e-15), entry.tail_start
        assert v <= entry.bracket_upper ** 2 * (1 + 1e-15), entry.tail_start


def window_caps(fam, end, solver_tail_max):
    """(tail, window, ladder Cap_M^2, solved Cap_M^2) at every (tail, outer
    window) pair that boundary_capacity's solver loop once visited: one
    equilibrium solve per pair, windows doubling from 4N until the solved
    value is stable or the window cap, tails stopping where w(N) eps^2 >
    1e-12. The ladder side is the window's sweep plus the tail's measure
    in the window."""
    maxwin = fam.max_window(OUTER_PER_TAIL * solver_tail_max)
    out = []
    n_tail = 4
    while n_tail <= min(solver_tail_max, maxwin // 4):
        if float(end.w_fn(np.float64(n_tail))) * np.finfo(float).eps ** 2 \
                > 1e-12:
            break
        m, prev = 4 * n_tail, None
        while True:
            r = equilibrium(fam.truncate(m), fam.tail_ids(end, n_tail, m))
            out.append((n_tail, m, window_value(fam, end, n_tail, m),
                        r.cap_sq))
            stable = prev is not None and \
                abs(r.cap - prev) <= 1e-6 * max(abs(r.cap), 1e-300)
            prev = r.cap
            if stable or 2 * m > maxwin:
                break
            m *= 2
        n_tail *= 2
    return out


def exact_ladder(w, mu):
    """The ladder sweep in exact rational arithmetic on the same floats:
    each cond(N) as an integer pair (p, q), cond = p / q. Fraction would
    reduce by a gcd at every step, which is most of its cost on these
    chains, so the pairs are only stripped of common factors of 2."""
    out, p, q = [], 0, 1
    for wx, mx in zip(w, mu):
        wn, wd = wx.as_integer_ratio()
        mn, md = mx.as_integer_ratio()
        gn, gd = mn * q + md * p, md * q            # G = mu + p / q
        p, q = wn * gn, wn * gd + gn * wd            # 1 / (1/w + 1/G)
        s = min((p & -p).bit_length(), (q & -q).bit_length()) - 1
        out.append((p >> s, q >> s))
        p, q = out[-1]
    return out


def within(value, p, q, rel):
    """|value - p/q| <= rel * p/q, decided exactly (p, q > 0)."""
    vn, vd = value.as_integer_ratio()
    return abs(vn * q - vd * p) <= Fraction(rel) * vd * p


def realized_chain(fam, end, depth):
    """w and mu along the chain that a tail of `end` leaves free, read off
    the realization of this depth (ids ascending run toward the plus end),
    and the chain index of the root."""
    ends = fam.ends()
    g = fam.truncate(depth + 1 if len(ends) == 1 else depth)
    w, mu = g.edge_w.tolist(), g.mu.tolist()
    if end is not ends[-1]:
        w, mu = w[::-1], mu[::-1]
    return w, mu, g.n - 1 - depth


SHORTCUT_CASES = (
    [(name, params, 128) for _label, name, params, _check in GOLDEN_RUNS
     if build_family(name, params).ends()]
    + [("ex5.6", {"alpha": a, "case": c}, 128)
       for a in (0.6, 1.5, 3.0) for c in (1, 2)]
    + [(name, {}, 256) for name in ("ex5.4", "ex5.5", "codim3")])


@pytest.mark.parametrize(
    "name, params, solver_tail_max", SHORTCUT_CASES,
    ids=[f"{n}-{'-'.join(f'{k}{v}' for k, v in p.items())}-{t}"
         for n, p, t in SHORTCUT_CASES])
def test_ray_tails_solved_once_match_a_solve_per_window(name, params,
                                                        solver_tail_max):
    # one sweep per end (per window on a line), plus the window's tail
    # measure, is the window's equilibrium solve to 1e-12 relative at every
    # pair the solver loop visited. Where SuperLU is further off than that,
    # exact arithmetic on the same inputs sides with the sweep.
    fam = build_family(name, params)
    rep = boundary_capacity(fam, solver_tail_max, 1 << 12)
    for end, seq in zip(fam.ends(), rep.per_end):
        if end.mu_is_infinite():
            assert seq.entries == []
            continue
        pairs = window_caps(fam, end, solver_tail_max)
        assert pairs
        for n_tail, m, ladder, solved in pairs:
            if abs(ladder - solved) <= 1e-12 * solved:
                continue
            w, mu, root = realized_chain(fam, end, fam._depth(m))
            p, q = exact_ladder(w, mu)[root + n_tail - 1]
            mn, md = sum(map(Fraction, mu[root + n_tail:])).as_integer_ratio()
            p, q = p * md + mn * q, q * md
            assert within(ladder, p, q, 1e-14), (end.label, n_tail, m)
            assert not within(solved, p, q, 1e-12), (end.label, n_tail, m)
        # every entry bounds each window's value from above
        for e in seq.entries:
            assert_windows_below(e, [v for n, _m, v, _s in pairs
                                     if n == e.tail_start])


LINEAR_RUNS = [(label, name, params) for label, name, params, _check
               in GOLDEN_RUNS if build_family(name, params).ends()]
FINITE_RUNS = [run for run in LINEAR_RUNS
               if not all(end.mu_is_infinite()
                          for end in build_family(*run[1:]).ends())]


def assert_ladder_exact(fam, depth):
    """Every cond(N), N <= depth, of each finite-measure end of fam within
    1e-14 of exact rational arithmetic on the floats of the realization's
    chain, which _end_ladder does not read: this checks its chain and its
    arithmetic. Returns the number of values checked."""
    checked = 0
    for end in fam.ends():
        if end.mu_is_infinite():
            continue
        w, mu, root = realized_chain(fam, end, depth)
        conds = _end_ladder(fam, end, depth)
        # the measure of the end's vertices 1..depth, which its tails sum
        assert np.allclose(end_mu(fam, end, depth)[1:], mu[root + 1:],
                           rtol=1e-15, atol=0)
        for cond, (p, q) in zip(conds, exact_ladder(w, mu)[root:]):
            assert within(cond, p, q, 1e-14), end.label
            checked += 1
    return checked


@pytest.mark.parametrize("label, name, params", FINITE_RUNS,
                         ids=[label for label, _n, _p in FINITE_RUNS])
def test_ladder_is_exact_arithmetic_to_1e14(label, name, params):
    assert assert_ladder_exact(build_family(name, params), 256) in (256, 512)


def mixed_line():
    """A line of two different ends: ex5.5's, and ex5.4's with twice its
    measure."""
    (minus,) = build_family("ex5.5").ends()
    (ray,) = build_family("ex5.4").ends()
    plus = dataclasses.replace(ray, mu_fn=lambda k: 2.0 * ray.mu_fn(k),
                               mu_tail_fn=lambda k: 2.0 * ray.mu_tail_fn(k))
    return LineFamily("mixed", minus, plus)


def test_a_line_of_two_different_ends():
    # the root's measure is the plus end's (2 here, the minus end's is 1),
    # and the other end's rules enter every sweep
    fam = mixed_line()
    assert fam.truncate(8).mu[8] == 2.0
    assert assert_ladder_exact(fam, 64) == 128
    # each end's entries are the solve on the largest window plus the
    # measure beyond it, and bound every window's value from above
    rep = boundary_capacity(fam, 16, 64)
    m = fam.max_window(OUTER_PER_TAIL * 16)
    for end, seq in zip(fam.ends(), rep.per_end):
        pairs = window_caps(fam, end, 16)
        assert len(pairs) > 3
        for _n, _m, ladder, solved in pairs:
            assert ladder == pytest.approx(solved, rel=1e-12)
        entries = [e for e in seq.entries if e.solver_cap is not None]
        assert len(entries) == 3
        for e in entries:
            r = equilibrium(fam.truncate(m), fam.tail_ids(end, e.tail_start, m))
            assert e.solver_cap_sq == pytest.approx(
                r.cap_sq + end.mu_tail(fam._depth(m) + 1).value, rel=1e-12)
            assert_windows_below(e, [v for n, _m, v, _s in pairs
                                     if n == e.tail_start])


REFERENCE_DEPTH = 200_000


def reference_bracket(fam, end, n_max):
    """{N: (lower, upper)} on Cap(tail_N)^2 for N <= n_max, from a float
    loop of its own over the chain that runs in from the other end's
    deepest vertex d <= REFERENCE_DEPTH where its w and mu are finite and
    positive. Free at d, the chain gives the lower bound; held at 0 at d,
    an upper bound, and so does the free chain plus the other end's
    measure beyond d when that is finite."""
    (other,) = [e for e in fam.ends() if e is not end]
    ks = np.arange(REFERENCE_DEPTH + 1.0)
    with np.errstate(all="ignore"):
        ow, om = (np.asarray(f(ks), dtype=float)
                  for f in (other.w_fn, other.mu_fn))
    bad = np.flatnonzero(~(np.isfinite(ow) & (ow > 0) & np.isfinite(om)
                           & (om > 0)))
    d = int(bad[0]) - 1 if bad.size else REFERENCE_DEPTH
    ow, om = ow[:d].tolist(), om[:d + 1].tolist()
    om[0] = float(fam.ends()[-1].mu_fn(np.float64(0)))      # the root
    ew, em = (np.asarray(f(np.arange(n_max + 1.0)), dtype=float).tolist()
              for f in (end.w_fn, end.mu_fn))

    def conductances(g):
        # g: conductance to ground at the chain's current vertex, shunt
        # included; walk in along the other end, then out along `end`
        for k in range(d - 1, -1, -1):
            g = om[k] + 1.0 / (1.0 / ow[k] + 1.0 / g)
        out = []
        for j in range(n_max):
            out.append(1.0 / (1.0 / ew[j] + 1.0 / g))
            g = em[j + 1] + out[-1]
        return out

    free, grounded = conductances(om[d]), conductances(math.inf)
    beyond = (None if other.mu_is_infinite()
              else other.mu_tail(d + 1).upper)
    out = {}
    for n in range(1, n_max + 1):
        tail = end.mu_tail(n)
        upper = grounded[n - 1] + tail.upper
        if beyond is not None:
            upper = min(upper, free[n - 1] + tail.upper + beyond)
        out[n] = (free[n - 1] + tail.value, upper)
    return out


ENCLOSED = [(name, budget) for name in ("ex5.1", "ex5.3", "mixed")
            for budget in ("quick", "standard", "deep")]


@pytest.mark.parametrize("name, budget", ENCLOSED,
                         ids=[f"{n}-{b}" for n, b in ENCLOSED])
def test_line_brackets_enclose_a_deep_reference(name, budget):
    # each line entry's value is a lower bound and its bracket a true
    # upper bound, against a chain cut far deeper; the slack covers the
    # rounding of both sweeps
    fam = mixed_line() if name == "mixed" else build_family(name)
    bud = resolve_budget(budget)
    rep = boundary_capacity(fam, bud.solver_tail_max, bud.analytic_tail_max)
    outside = []
    for end, seq in zip(fam.ends(), rep.per_end):
        entries = [e for e in seq.entries if e.solver_cap is not None]
        if not entries:
            assert end.mu_is_infinite()
            continue
        ref = reference_bracket(fam, end, entries[-1].tail_start)
        for e in entries:
            lower, upper = ref[e.tail_start]
            if not (e.solver_cap_sq <= upper * (1 + 1e-12)
                    and e.bracket_upper ** 2 >= lower * (1 - 1e-12)):
                outside.append((end.label, e.tail_start, e.solver_cap_sq,
                                e.bracket_upper ** 2, lower, upper))
    assert not outside


def test_ladder_at_ex53a_largest_window():
    # the float-range probe stops at window 1024: w runs to 2^1022 on the
    # edges and the cut edge leaks 2^1023, the largest power of 2 below
    # float overflow; the sweep stays finite, warns of nothing and agrees
    # with the ray's entries
    fam = build_family("ex5.3a")
    (end,) = fam.ends()
    window = fam.max_window(1 << 20)
    depth = fam._depth(window)
    assert window == 1024
    assert fam.truncate(window).leak == {depth: 2.0 ** 1023}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conds = _end_ladder(fam, end, depth)
        rep = boundary_capacity(fam, solver_tail_max=window // 4,
                                analytic_tail_max=1)
    mu = end_mu(fam, end, depth)
    assert len(conds) == depth
    assert all(math.isfinite(c) and c > 0.0 for c in conds)
    for e in rep.per_end[0].entries:
        n = e.tail_start
        assert e.solver_cap_sq == conds[n - 1] + end.mu_tail(n).value
        assert e.solver_cap_sq == pytest.approx(
            conds[n - 1] + math.fsum(mu[n:]), rel=1e-15)
    assert [e.tail_start for e in rep.per_end[0].entries] == \
        [4, 8, 16, 32, 64, 128, 256]


@pytest.mark.parametrize("label, name, params", LINEAR_RUNS,
                         ids=[label for label, _n, _p in LINEAR_RUNS])
def test_boundary_capacity_neither_truncates_nor_solves(monkeypatch, label,
                                                        name, params):
    fam = build_family(name, params)

    def refuse(*args):
        raise AssertionError("boundary_capacity built a window or solved")

    monkeypatch.setattr(potential, "equilibrium", refuse)
    monkeypatch.setattr(fam, "truncate", refuse)
    monkeypatch.setattr(fam, "_window", refuse)
    for budget in ("quick", "standard", "deep"):
        bud = resolve_budget(budget)
        rep = boundary_capacity(fam, bud.solver_tail_max,
                                bud.analytic_tail_max)
        assert rep.per_end


def test_standard_gallery_solve_count(monkeypatch):
    # 141 solves at one per (tail, outer window) pair, 91 with a ray's
    # tails solved once; the ladder leaves none in the whole gallery
    calls = []

    def counted(g, U):
        calls.append(g.n)
        return equilibrium(g, U)

    monkeypatch.setattr(potential, "equilibrium", counted)
    assert run_gallery(budget="standard").exit_code == 0
    assert calls == []


def test_line_ends_share_ramp_bounds_and_tails(monkeypatch):
    # ex5.1's ends are copies of one End: each ramp bound is computed once
    fam = build_family("ex5.1")
    minus, plus = fam.ends()
    seen = []

    def counted(end, n):
        seen.append((end.label, n))
        return _ramp_upper(end, n)

    monkeypatch.setattr(potential, "_ramp_upper", counted)
    rep = boundary_capacity(fam, **STANDARD)
    tails = [e.tail_start for e in rep.per_end[0].entries]
    assert [n for _, n in seen] == tails
    assert [e.ramp_upper for e in rep.per_end[0].entries] == \
        [e.ramp_upper for e in rep.per_end[1].entries]
    # and one tail memo: a rule runs once per index for both ends
    assert minus._tails is plus._tails
    ks = []
    rule = plus.mu_tail_fn
    minus.mu_tail_fn = plus.mu_tail_fn = lambda k: ks.append(k) or rule(k)
    assert minus.mu_tail(1 << 30) is plus.mu_tail(1 << 30)
    assert ks == [1 << 30]


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
    # past a 0 bound no slope is fitted
    assert seq.diagnostics["upper_loglog_slope"] is None
    for seq in cap_reports["ex5.1"].per_end:
        assert seq.entries[-1].tail_start == STANDARD["analytic_tail_max"]
        assert "analytic_stopped" not in seq.diagnostics


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def nan_from_3000(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 3000, 2.0 ** -x, np.nan)


def ray_with_nan_measure_terms():
    # mu underflows to 0 at 1075 and is NaN from 3000, so the measure tail
    # raises once the ramp grid reads mu_tail(4097), at tail 8192
    return RayFamily("nan-mu", ones, nan_from_3000, mu_tail_fn=lambda k:
                     geometric_tail(nan_from_3000, k, 0.5))


def ray_without_a_measure_tail():
    return RayFamily("no-mu-tail", ones, lambda x: 2.0 ** -np.asarray(x))


@pytest.mark.parametrize("tails", [2, 3, 4, 8, 128, 256])
@pytest.mark.parametrize("make, error, message", [
    (ray_with_nan_measure_terms, FamilyDefinitionError, "nan at index 4097"),
    (ray_without_a_measure_tail, InputError, "no tail data for the measure"),
])
def test_a_bad_measure_tail_raises_at_every_solver_tail(make, error, message,
                                                        tails):
    # a measure tail that cannot be certified is an error of the family,
    # not an inf ramp bound with a note that the rules overflow float range
    with pytest.raises(error, match=message):
        boundary_capacity(make(), tails, STANDARD["analytic_tail_max"])


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
    res = codim_polarity_test(build_family("codim3"))
    assert res.fires
    assert res.decreasing
    assert res.final_value < 1e-3
    assert all(e.within_bound for e in res.entries)
    vals = [e.value for e in res.entries]
    assert vals[-1] == min(vals)


@pytest.mark.parametrize("depth", [1, 0, -3])
def test_codim_and_polarity_test_reject_shallow_depth(depth):
    with pytest.raises(InputError, match="needs depth >= 2"):
        minkowski_samples(build_family("codim3"), depth=depth)


def test_codim_and_polarity_test_at_depth_two():
    assert minkowski_samples(build_family("codim3"), depth=2).xs.tolist() \
        == [1, 2]


def test_codim_needs_two_samples_above_underflow():
    # at alpha = 600 the boundary distance 2^-600 / (2^600 - 1) is 0.0
    # already at x = 1
    with pytest.raises(InputError, match="fewer than 2 samples"):
        minkowski_samples(build_family("ex5.6", {"alpha": 600.0}), depth=40)


def test_polarity_test_needs_single_end():
    with pytest.raises(InputError):
        codim_polarity_test(build_family("ex5.1"))


# -- form separation evidence -------------------------------------------------------

def test_boundary_alternative(cap_reports):
    alt = boundary_alternative_evidence(cap_reports["ex5.3a"])
    assert alt.verdict == "forms differ: D(Q) != D(Q^max)"
    alt0 = boundary_alternative_evidence(cap_reports["ex5.1"])
    assert alt0.verdict == "no separation from capacities"
    assert "capacity" in alt0.basis or "0 or infinity" in alt0.basis
