"""The ball scan against an independent copy of the graph scan.

reference_scan below realizes each window itself (a ray or line by
reference_window, which builds the graph from the rules as realizations
did before they read the rules as arrays), puts the sigma choice's
lengths on it and runs Dijkstra from the origin. _ball_scan, which does
the same for every family and sigma choice through truncate, must give
the same table bit for bit. The "rule scan" tests are those on rays and
lines with canonical sigma.
"""

import numpy as np
import pytest

from iglab import completeness, metrics
from iglab.classify import BUDGETS, classify, deg_ball_boundedness
from iglab.completeness import (BallScan, PathMetric, _ball_scan,
                                hopf_rinow_report, lengths_for)
from iglab.errors import FamilyDefinitionError, InputError, NumericalError
from iglab.gallery import GOLDEN_RUNS, build_family
from iglab.graphs import LineFamily, RayFamily, WeightedGraph
from iglab.metrics import EdgeLengths


def reference_window(fam, win):
    """A ray or line window and its canonical lengths as they were realized
    before realizations read the rules as arrays, one array per rule and
    end: w on 0..depth-1, mu on 0..depth (the last end, which holds the
    root) or 1..depth, and sigma on each edge's model coordinate
    (reversed on the minus end)."""
    ends = fam.ends()
    depth, root = fam._depth(win), fam.root_id(win)
    ks = np.arange(depth + 1.0)
    mu = np.empty(root + depth + 1)
    edges = []
    for end in ends:
        sign = 1 if end is ends[-1] else -1
        w = np.asarray(end.w_fn(ks[:-1]), dtype=float)
        m = np.asarray(end.mu_fn(ks if sign > 0 else ks[1:]), dtype=float)
        if sign > 0:
            mu[root:] = m
        else:
            mu[:root] = m[::-1]
        ids = root + sign * ks
        edges.append(np.column_stack((ids[:-1], ids[1:], w)))
    g = WeightedGraph(root + depth + 1, np.concatenate(edges), mu,
                      origin=root)
    k = (g.edge_u - g.origin).astype(float)
    plus = k >= 0
    lengths = np.empty(k.size)
    for end, sel, idx in ((ends[-1], plus, k), (ends[0], ~plus, -k - 1)):
        if sel.any():
            lengths[sel] = end.sigma_fn(idx[sel])
    return g, EdgeLengths(g, lengths, kind="canonical")


def reference_scan(fam, sigma, n_max):
    """Doubling windows up to the family's cap, each realized (rays and
    lines with canonical sigma by reference_window), with Dijkstra
    distances from the origin on its graph."""
    cap = fam.max_window(n_max)
    windows = []
    w = 8
    while w < cap:
        windows.append(w)
        w *= 2
    windows.append(cap)
    scan = None
    for win in windows:
        if fam.ends() and sigma == "canonical":
            g, lengths = reference_window(fam, win)
        else:
            g = fam.truncate(win)
            lengths = lengths_for(g, sigma, fam)
        metric = PathMetric(lengths)
        d = metric.distances_from(g.origin)
        if scan is None:
            ecc = metric.eccentricity(g.origin)
            scan = BallScan([], [ecc * j / 8 for j in range(1, 9)], {}, {})
        scan.windows.append(win)
        deg = g.degrees()
        for j, r in enumerate(scan.radii):
            inside = d <= r
            scan.sizes.setdefault(r, []).append(int(np.count_nonzero(inside)))
            if j % 2:
                inside[g.indices[inside[g.rows]]] = True    # n(B_r(x0))
                scan.max_deg.setdefault(r, []).append(
                    float(deg[inside].max()))
    return scan


def as_hex(scan):
    """The whole table with every float as its hex string."""
    return (scan.windows, [r.hex() for r in scan.radii],
            [(r.hex(), s) for r, s in scan.sizes.items()],
            [(r.hex(), [v.hex() for v in d]) for r, d in scan.max_deg.items()])


LINEAR_RUNS = [(label, name, params) for label, name, params, _check
               in GOLDEN_RUNS if build_family(name, params).ends()]


def test_the_golden_linear_runs():
    # twelve rays and lines, among them ex5.3, a line whose two ends differ
    assert len(LINEAR_RUNS) == 12
    fam = build_family("ex5.3")
    assert isinstance(fam, LineFamily)
    minus, plus = fam.ends()
    assert minus.w_fn is not plus.w_fn and minus.mu_fn is not plus.mu_fn


@pytest.mark.parametrize("budget", ["quick", "standard", "deep"])
@pytest.mark.parametrize("label, name, params", LINEAR_RUNS,
                         ids=[label for label, _n, _p in LINEAR_RUNS])
def test_rule_scan_is_the_graph_scan(label, name, params, budget):
    # at deep this includes the ex5.1 and ex5.6 runs whose canonical lengths
    # underflow before w and mu do
    n_max = BUDGETS[budget].hopf_n_max
    got = _ball_scan(build_family(name, params), "canonical", n_max)
    want = reference_scan(build_family(name, params), "canonical", n_max)
    assert as_hex(got) == as_hex(want)


@pytest.mark.parametrize("label, name, params", LINEAR_RUNS,
                         ids=[label for label, _n, _p in LINEAR_RUNS])
def test_realization_reads_the_rules_as_before(label, name, params):
    fam = build_family(name, params)
    for win in _ball_scan(fam, "canonical", 512).windows:
        g, lengths = reference_window(fam, win)
        h = fam.truncate(win)
        assert h.mu.tobytes() == g.mu.tobytes()
        assert list(h.edges()) == list(g.edges())
        assert fam.canonical_lengths(h).values.tobytes() == \
            lengths.values.tobytes()


def make_ray(seed, n):
    """Seeded ray with w and mu uniform on [0.5, 2], read by int64 lookup,
    and the default sigma_0 rule."""
    rng = np.random.default_rng([seed, n])
    w = rng.uniform(0.5, 2.0, n + 2)
    mu = rng.uniform(0.5, 2.0, n + 2)
    return RayFamily(f"ray-{n}", lambda x: w[np.asarray(x, dtype=np.int64)],
                     lambda x: mu[np.asarray(x, dtype=np.int64)])


@pytest.mark.parametrize("seed, n", [(seed, n) for seed in (1, 2)
                                     for n in (1000, 3000, 7000, 20000)])
def test_rule_scan_is_the_graph_scan_on_seeded_rays(seed, n):
    got = _ball_scan(make_ray(seed, n), "canonical", n)
    assert got.windows[-1] == n
    assert as_hex(got) == as_hex(reference_scan(make_ray(seed, n),
                                                "canonical", n))


def test_a_line_of_two_different_ends_and_seeded_rules():
    # the minus end's lengths run on the reversed index array and its
    # vertex 0 is the root, which has the plus end's measure; that measure
    # is small, so the root has the largest degree of every neighborhood
    rng = np.random.default_rng(7)
    tables = [rng.uniform(0.5, 2.0, 600) for _ in range(4)]
    tables[3][0] = 1e-3
    rays = [make_ray(3, 500), make_ray(4, 500)]
    for ray, w, mu in zip(rays, tables[::2], tables[1::2]):
        (end,) = ray.ends()
        end.w_fn = lambda x, w=w: w[np.asarray(x, dtype=np.int64)]
        end.mu_fn = lambda x, mu=mu: mu[np.asarray(x, dtype=np.int64)]

    def line():
        (minus,), (plus,) = (ray.ends() for ray in rays)
        return LineFamily("mixed", minus, plus)

    assert line().truncate(8).mu[8] == 1e-3
    scan = _ball_scan(line(), "canonical", 400)
    assert as_hex(scan) == as_hex(reference_scan(line(), "canonical", 400))
    assert min(min(row) for row in scan.max_deg.values()) > 1000.0


def refuse(*args, **kwargs):
    raise AssertionError("a graph was built or searched")


@pytest.mark.parametrize("name, sigma", [
    ("a5.1", "canonical"), ("a5.3", "canonical"), ("a5.4", "canonical"),
    ("ex5.4", "canonical"), ("ex5.3", "canonical"),
    ("ex5.4", "sigma0"), ("ex5.3", "sigma0"), ("ex5.5", "sigma1")])
def test_stars_and_other_sigmas_run_dijkstra(name, sigma, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dijkstra(*args, **kwargs)

    dijkstra = metrics.dijkstra
    monkeypatch.setattr(metrics, "dijkstra", counted)
    scan = _ball_scan(build_family(name), sigma, 64)
    assert len(calls) == len(scan.windows)
    monkeypatch.setattr(metrics, "dijkstra", dijkstra)
    assert as_hex(scan) == as_hex(reference_scan(build_family(name), sigma,
                                                 64))


# -- rows that sum past the float range ------------------------------------------


def overflow_ray(w_fn):
    """A ray with weights w_fn and mu = sigma = 2^-x, with tail rules."""
    def halves(x):
        return 2.0 ** -np.asarray(x, dtype=float)

    return RayFamily("big", w_fn, halves, sigma_fn=halves,
                     sigma_tail_fn=lambda k: 2.0 ** (1 - k),
                     mu_tail_fn=lambda k: 2.0 ** (1 - k))


def constant_big(x):
    return np.full_like(np.asarray(x, dtype=float), 1.5e308)


def doubling_big(x):
    with np.errstate(over="ignore"):            # inf from x = 1024 on
        return 1.5 * 2.0 ** np.asarray(x, dtype=float)


def test_max_window_stops_before_a_row_sum_overflows():
    # every vertex but the ends of a window holds two edges of 1.5e308,
    # so only the depth-1 window (two vertices, one edge) has finite rows
    assert overflow_ray(constant_big).max_window(64) == 2
    # 1.5 2^x: the row of vertex 1023, at depth 1024, is 1.125 2^1024
    fam = overflow_ray(doubling_big)
    assert fam.max_window(10 ** 6) == 1024
    assert np.isfinite(fam.truncate(1024).row_sums).all()
    # a line's root row holds both ends' w(0)
    (end,) = overflow_ray(constant_big).ends()
    (small,) = overflow_ray(lambda x: np.ones_like(
        np.asarray(x, dtype=float))).ends()
    with pytest.raises(Exception, match="rules invalid near the origin"):
        LineFamily("big-line", end, end).max_window(64)
    # with w = 1 on the minus end the root row is finite, and the plus end's
    # vertex 1 caps the line at depth 1, window 1
    assert LineFamily("mixed", small, end).max_window(64) == 1


def step_big(x):
    """1 on the edges below 1000, 1.5e308 from edge 1000 on."""
    return np.where(np.asarray(x, dtype=float) < 1000, 1.0, 1.5e308)


def test_a_row_sum_past_float_range_is_a_numerical_error():
    # valid rules, each weight finite, two weights summing past float range
    with pytest.raises(NumericalError, match="vertex 1001 sum past"):
        overflow_ray(step_big).truncate(1003)
    with pytest.raises(NumericalError, match="vertex 1 sum past"):
        overflow_ray(constant_big).truncate(3)
    # here the cut edge's weight 1.5 2^1024 is inf: the rules fail first
    with pytest.raises(FamilyDefinitionError,
                       match="weight rule invalid at edge index 1024"):
        overflow_ray(doubling_big).truncate(1025)


def test_classify_does_not_reach_the_graph_scan_on_rays(monkeypatch):
    # classify decides a ray's completeness from its end, so the ball
    # scan is not reached
    monkeypatch.setattr(completeness, "_graph_balls", refuse)
    monkeypatch.setattr(completeness, "_ball_scan", refuse)
    monkeypatch.setattr("iglab.classify._ball_scan", refuse)
    assert classify(build_family("ex5.4"), budget="quick").completeness


@pytest.mark.parametrize("w_fn", [constant_big, doubling_big])
def test_classify_reaches_a_verdict_on_overflowing_weights(w_fn):
    for budget in ("quick", "standard"):
        rep = classify(overflow_ray(w_fn), budget=budget)
        assert rep.completeness == "incomplete-evidence"
        assert hopf_rinow_report(overflow_ray(w_fn), n_max=64).windows[-1] \
            == overflow_ray(w_fn).max_window(64)


# -- sigma0 and sigma1 lengths that leave float range before the cap --------------


@pytest.mark.parametrize("sigma", ["sigma0", "sigma1"])
def test_the_scan_stops_before_lengths_that_are_not_positive(sigma):
    # the cap is the float range of the rules and the canonical lengths;
    # on 9 of the 12 golden rays and lines Deg overflows before it, so
    # Deg^-1/2 rounds to 0 there: the report keeps the windows before that
    # one and names it, and every report at n_max 65536 returns
    stopped = []
    for label, name, params, _check in GOLDEN_RUNS:
        fam = build_family(name, params)
        if not fam.ends():
            continue
        rep = hopf_rinow_report(fam, sigma, n_max=65536)
        cap = fam.max_window(65536)
        windows = [1 << p for p in range(3, (cap - 1).bit_length())] + [cap]
        assert rep.windows == windows[:len(rep.windows)], label
        notes = [n for n in rep.notes if n.startswith("ball scan stopped")]
        if len(rep.windows) < len(windows):
            win = windows[len(rep.windows)]
            assert len(notes) == 1, label
            assert notes[0].startswith(f"ball scan stopped before window "
                                       f"{win}: {sigma} edge ("), label
            assert notes[0].endswith("): length must be positive"), label
            stopped.append(label)
        else:
            assert notes == [], label
    assert len(stopped) == (9 if sigma == "sigma0" else 0), stopped


def test_deg_ball_boundedness_shares_the_stopped_scan():
    fam = build_family("ex5.6", {"alpha": 2.0, "case": 1})
    rep = deg_ball_boundedness(fam, "sigma0", n_max=512)
    assert rep.windows == [8, 16, 32, 64, 128, 256]
    assert all(len(v) == 6 for v in rep.max_deg.values())


def test_a_first_window_or_a_metric_precondition_still_fails():
    # mu = 2^-1074 makes Deg = w / mu overflow at every vertex, so sigma0
    # has no positive length in the first window
    def ones(x):
        return np.ones_like(np.asarray(x, dtype=float))

    tiny = RayFamily("tiny", ones, lambda x: np.full_like(
        np.asarray(x, dtype=float), 5e-324), sigma_fn=ones,
        mu_tail_fn=lambda k: 0.0)
    with pytest.raises(InputError, match="length must be positive"):
        hopf_rinow_report(tiny, "sigma0", n_max=64)
    # ex5.4 has Deg = 4^x / 4 inside a window: natural:1e4 holds in window
    # 8 and not in 16, a precondition of the metric and not a float limit
    with pytest.raises(InputError, match="natural metric needs Deg <="):
        hopf_rinow_report(build_family("ex5.4"), "natural:1e4", n_max=64)
