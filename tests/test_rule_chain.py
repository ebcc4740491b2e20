"""Every reader of a ray's or line's rules slices one memoized chain.

LinearFamily.chain(depth) evaluates each end's w, mu and sigma once per
index, grows by doubling and is read by slicing. The readers are the
realization (truncate, its leak and canonical lengths), the float-range
probe (max_window), the ball scan, the capacity ladder and its
resistance_lower, the lambda recursion, the witness and the cutoff test.

reference() below reads the rules as they were read before the chain:
each window evaluated on its own index arrays, a line's minus sigma on a
descending array and the leak as a scalar call. On every golden ray and
line, and on a line whose ends differ in every rule, each reader must
see those values bit for bit, whether the memo was grown a window at a
time or straight to full depth. The last test wraps the rules and counts
what one classify evaluates.
"""

import collections
import sys

import numpy as np
import pytest

from iglab.classify import (BUDGETS, _ray_lambda_solve, classify,
                            harmonic_witness_check, lambda_solve)
from iglab.errors import InputError
from iglab.gallery import GOLDEN_RUNS, build_family
from iglab.graphs import End, LineFamily, LinearFamily
from iglab.potential import OUTER_PER_TAIL, boundary_capacity
from iglab.series import series_verdict

LINEAR_RUNS = [(label, name, params) for label, name, params, _check
               in GOLDEN_RUNS if build_family(name, params).ends()]
IDS = [label for label, _n, _p in LINEAR_RUNS]


def two_end_line():
    """A line whose ends differ in every rule, mu(0) included: the root
    takes the plus end's 0.3, the minus end's lambda recursion its own 1."""
    minus = End(lambda x: 1.0 + 1.0 / (np.asarray(x, dtype=float) + 3.0),
                lambda x: 3.0 ** -np.asarray(x, dtype=float),
                lambda x: 1.0 / (np.asarray(x, dtype=float) + 2.0),
                mu_tail_fn=lambda k: 1.5 * 3.0 ** -k)
    plus = End(lambda x: 2.0 - 0.7 ** np.asarray(x, dtype=float),
               lambda x: 0.3 * 2.0 ** -np.asarray(x, dtype=float),
               lambda x: 0.5 ** np.asarray(x, dtype=float),
               mu_tail_fn=lambda k: 0.6 * 2.0 ** -k)
    return LineFamily("two ends", minus, plus)


BUILDERS = {label: (lambda name=name, params=params:
                    build_family(name, params))
            for label, name, params in LINEAR_RUNS}
BUILDERS["two-ends"] = two_end_line


def reference(fam, window):
    """Per end of truncate(window) at depth d: w on the edges 0..d-1; mu on
    0..d for the last end, which holds the root, and on 1..d for another;
    sigma in outward order, evaluated on 0..d-1 for the last end and on
    d-1..0 for another, whose edges the realization stores from the
    outermost in; and the leak w(d) as a scalar call."""
    d = fam._depth(window)
    ks = np.arange(d + 1.0)
    out = []
    for end in fam.ends():
        last = end is fam.ends()[-1]
        sigma = np.asarray(end.sigma_fn(np.ascontiguousarray(
            ks[:-1] if last else ks[-2::-1])), dtype=float)
        out.append((np.asarray(end.w_fn(ks[:-1]), dtype=float),
                    np.asarray(end.mu_fn(ks if last else ks[1:]), dtype=float),
                    sigma if last else sigma[::-1],
                    float(end.w_fn(np.float64(d)))))
    return out


def assert_readers_see_the_window(fam, window):
    """truncate(window), its canonical lengths and leak, the window arrays
    (ladder, witness, cutoff) and the chain (ball scan, lambda, witness,
    resistance_lower) hold reference(fam, window) bit for bit."""
    d, root = fam._depth(window), fam.root_id(window)
    ref = reference(fam, window)
    *others, last = ref
    # a realization's ids run from the minus end's outermost vertex out
    w = np.concatenate([r[0][::-1] for r in others] + [last[0]])
    mu = np.concatenate([r[1][::-1] for r in others] + [last[1]])
    sigma = np.concatenate([r[2][::-1] for r in others] + [last[2]])
    leak = {root + (1 if r is last else -1) * d: r[3].hex() for r in ref}
    g = fam.truncate(window)
    assert (g.edge_w.tobytes(), g.mu.tobytes()) == (w.tobytes(), mu.tobytes())
    assert fam.canonical_lengths(g).values.tobytes() == sigma.tobytes()
    assert {x: v.hex() for x, v in g.leak.items()} == leak
    assert [a.tobytes() for a in fam._window_arrays(window)] == \
        [g.edge_w.tobytes(), g.mu.tobytes()]
    chains = fam.chain(d)
    for (w, mu, sigma, cut), c in zip(ref, chains):
        assert c.w[:d].tobytes() == w.tobytes()
        assert c.w[d].hex() == cut.hex()
        assert c.mu[-d:].tobytes() == mu[-d:].tobytes()
        assert c.sigma.tobytes() == sigma.tobytes()
    assert chains[-1].mu[:1].tobytes() == g.mu[root:root + 1].tobytes()


def windows_up_to_each_budget(fam):
    """Doubling windows 8, 16, ... and each budget's largest window, the one
    classify realizes at that budget's max_window, ascending."""
    tops = {fam.max_window(max(b.hopf_n_max,
                               OUTER_PER_TAIL * b.solver_tail_max))
            for b in BUDGETS.values()}
    return sorted({1 << p for p in range(3, max(tops).bit_length())
                   if 1 << p < max(tops)} | tops)


def old_witness_partials(fam, window):
    """The witness's precondition and l2 partial sums from the rules, as
    harmonic_witness_check computed them before the chain."""
    minus, plus = fam.ends()
    xs = np.arange(window, dtype=float)
    mu_pos = np.asarray(plus.mu_fn(xs), dtype=float)
    mu_neg = np.asarray(minus.mu_fn(xs[1:]), dtype=float)
    pre = series_verdict(np.concatenate([xs ** 2 * np.sqrt(mu_pos),
                                         xs[1:] ** 2 * np.sqrt(mu_neg)]))
    l2 = series_verdict(np.concatenate([xs ** 2 * mu_pos,
                                        xs[1:] ** 2 * mu_neg]))
    return pre.partial, l2.partial


@pytest.mark.parametrize("grown", ["a window at a time", "straight to depth"])
@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_each_reader_sees_the_realized_window(label, grown):
    windows = windows_up_to_each_budget(BUILDERS[label]())
    lam_windows = [b.lambda_window for b in BUDGETS.values()]
    fam = BUILDERS[label]()
    if grown == "straight to depth":
        fam.chain(max(fam._depth(windows[-1]), max(lam_windows) - 1))
    for window in windows:
        assert_readers_see_the_window(fam, window)
    for window in lam_windows:
        # each end from its own mu(0), on the vertices 0..window-1
        xs = np.arange(window, dtype=float)
        sols = lambda_solve(fam, window)
        for end in fam.ends():
            want = _ray_lambda_solve(
                np.asarray(end.w_fn(xs[:-1]), dtype=float),
                np.asarray(end.mu_fn(xs), dtype=float))
            got = sols[end.label]
            assert (got.window, got.u.tobytes(), got.residual.hex()) == \
                (want.window, want.u.tobytes(), want.residual.hex())
        if len(fam.ends()) == 2:
            pre, l2 = old_witness_partials(fam, window)
            try:
                rep = harmonic_witness_check(fam, window)
            except InputError as exc:
                assert f"partial sum {pre:.6g} " in str(exc)
            else:
                assert (rep.precondition.partial.hex(), rep.l2.partial.hex()) \
                    == (pre.hex(), l2.hex())
    rep = boundary_capacity(fam, 16, 64)
    for end, seq in zip(fam.ends(), rep.per_end):
        if end.res_upper is not None:
            mu1 = float(np.asarray(end.mu_fn(np.float64(1))))
            assert seq.diagnostics["resistance_lower"].hex() == \
                ((1.0 / mu1 + end.res_upper) ** -0.5).hex()


def counted(rule, calls):
    """rule, recording each call outside the ramp grid as (start, stop) of
    its index array, after checking that the chain made it on a 1-D run
    of consecutive indices."""
    def wrapper(x):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        if not names & {"_ramp_upper", "_w_sum"}:
            assert "_grow" in names, sorted(names)
            assert isinstance(x, np.ndarray) and x.ndim == 1 and x.size
            start = int(x[0])
            assert np.array_equal(x, np.arange(start, start + x.size))
            calls.append((start, start + x.size))
        return rule(x)

    return wrapper


@pytest.mark.parametrize("budget", ["quick", "standard", "deep"])
@pytest.mark.parametrize("label, name, params", LINEAR_RUNS, ids=IDS)
def test_classify_evaluates_each_rule_once_per_index(label, name, params,
                                                     budget, monkeypatch):
    fam = build_family(name, params)
    calls = collections.defaultdict(list)     # (end, rule) -> [(start, stop)]
    for i, end in enumerate(fam.ends()):
        for rule in ("w_fn", "mu_fn", "sigma_fn"):
            setattr(end, rule, counted(getattr(end, rule), calls[i, rule]))
    depths = []                                # every depth a reader read
    chain, max_window = LinearFamily.chain, LinearFamily.max_window

    def read(self, depth):
        depths.append(int(depth))
        return chain(self, depth)

    def probe(self, cap):
        window = max_window(self, cap)
        depths.append(self._depth(window))
        return window

    monkeypatch.setattr(LinearFamily, "chain", read)
    monkeypatch.setattr(LinearFamily, "max_window", probe)
    classify(fam, budget=budget)
    assert len(calls) == 3 * len(fam.ends())
    for key, segments in calls.items():
        # each index once, in order from 0
        starts = [start for start, _ in segments]
        stops = [stop for _, stop in segments]
        assert starts == [0] + stops[:-1], key
        # at most one call per doubling of the memo
        assert len({(stop - 1).bit_length() for stop in stops}) == \
            len(stops), (key, stops)
        assert stops[-1] <= 2 * (max(depths) + 1), (key, stops, max(depths))
