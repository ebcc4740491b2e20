import math
import os

import numpy as np
import pytest

from iglab.cli import load_family_config
from iglab.errors import FamilyDefinitionError, InputError
from iglab.gallery import REGISTRY, build_family
from iglab.graphs import (RayFamily, WeightedGraph, combinatorial_neighborhood,
                          dumps, dump_path, load_path, loads, vertex_id,
                          vertex_mask)

from conftest import make_random_graph


def path_graph(n, w=1.0, mu=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)],
                         [mu] * n)


# -- construction and validation ---------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 0, 1.0)], [1.0, 1.0])


def test_rejects_negative_weight():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, -1.0)], [1.0, 1.0])


def test_rejects_nan_weight():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, float("nan"))], [1.0, 1.0])


def test_rejects_duplicate_edge():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)], [1.0, 1.0])


def test_rejects_bad_measure():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, 0.0])
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, -3.0])
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0])


def test_rejects_out_of_range_edge_and_empty_graph():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 2, 1.0)], [1.0, 1.0])
    with pytest.raises(InputError):
        WeightedGraph(0, [], [])


def test_zero_weight_edge_is_absent():
    g = WeightedGraph(3, [(0, 1, 0.0), (1, 2, 2.0)], [1.0, 1.0, 1.0])
    assert g.weight(0, 1) == 0.0
    assert g.edge_count() == 1
    assert list(g.neighbors(1)) == [2]


def test_weight_symmetry_shares_float():
    g = make_random_graph(np.random.default_rng(3))
    for x, y, w in g.edges():
        assert g.weight(x, y) == g.weight(y, x) == w


def test_row_sums_cached_and_recomputed_agree():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = make_random_graph(rng)
        for x in range(g.n):
            row = g.w[g.indptr[x]:g.indptr[x + 1]].tolist()
            assert g.row_sums[x] == math.fsum(row)


def fsum_rows(g, vals):
    """The per-row math.fsum reference of WeightedGraph.row_fsum."""
    ip = g.indptr.tolist()
    return np.array([math.fsum(vals[a:b].tolist())
                     for a, b in zip(ip, ip[1:])])


def test_row_fsum_on_short_rows_is_fsum():
    # a path 0..9 and two isolated vertices: rows of 2, 1 and 0 entries,
    # summed by the short-row bincount; a star hub row takes the fsum loop
    rng = np.random.default_rng(5)
    path = WeightedGraph(12, [(x, x + 1, 1.0) for x in range(9)], [1.0] * 12)
    star = WeightedGraph(4, [(0, y, 1.0) for y in range(1, 4)], [1.0] * 4)
    for g in (path, star):
        k = g.w.size
        first = g.indptr[:-1][np.diff(g.indptr) > 0]   # first entry per row
        cases = [rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k),
                 np.full(k, -0.0), np.zeros(k)]
        for special in (-0.0, math.inf, -math.inf, math.nan):
            vals = rng.standard_normal(k)
            vals[first[::2]] = special
            cases.append(vals)
        x = rng.standard_normal(k)
        cases.append(np.where(np.arange(k) % 2, -x, x))  # cancelling pairs
        # (1 + u) + u rounds to 1 with u = 2^-53; the exact sum does not
        cases.append(np.resize([1.0, 2.0 ** -53, 2.0 ** -53], k))
        for vals in cases:
            assert g.row_fsum(vals).tobytes() == fsum_rows(g, vals).tobytes()
        for a, b, err in ((1e308, 1e308, OverflowError),
                          (math.inf, -math.inf, ValueError)):
            vals = np.zeros(k)
            start = g.indptr[1 if g is path else 0]  # a row of 2 or 3
            vals[start:start + 2] = a, b
            with pytest.raises(err):
                fsum_rows(g, vals)
            with pytest.raises(err):
                g.row_fsum(vals)


def test_graph_arrays_are_read_only():
    # a truncation is handed to every caller, so no caller may write to it;
    # the measure the caller passed is copied and stays the caller's
    mu = np.ones(3)
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 4.0)], mu, leak={2: 1.0})
    assert mu.flags.writeable and not np.shares_memory(mu, g.mu)
    mu[0] = 5.0
    assert g.mu[0] == 1.0
    for name in ("mu", "indptr", "indices", "w", "rows", "edge_u", "edge_v",
                 "edge_w", "edge_of", "row_sums"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 0.0
    with pytest.raises(TypeError):
        g.leak[2] = 0.0


def test_degree_and_total_measure():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 4.0)], [0.5, 1.0, 2.0])
    assert g.degrees().tolist() == [4.0, 6.0, 2.0]    # 2 / 0.5, 6 / 1, 4 / 2
    assert np.diff(g.indptr).tolist() == [1, 2, 1]
    assert math.fsum(g.mu) == 3.5


def test_leak_and_frontier():
    # the frontier is the leak's keys, a zero leak included
    g = WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3, leak={1: 0.25, 2: 0.0})
    assert g.frontier == {1, 2}
    assert g.leak == {1: 0.25, 2: 0.0}
    assert g.origin == 0
    assert WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3, origin=2).origin == 2
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, 1.0], leak={0: -1.0})
    for origin in (-1, 3):
        with pytest.raises(InputError, match="origin out of range"):
            WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3, origin=origin)


def test_is_connected():
    assert path_graph(4).is_connected()
    g = WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3)
    assert not g.is_connected()


def test_vertex_set_and_neighborhood():
    g = path_graph(5)
    assert np.flatnonzero(vertex_mask(g, [3, 1, 3])).tolist() == [1, 3]
    with pytest.raises(InputError):
        vertex_mask(g, [7])
    assert combinatorial_neighborhood(g, (2,)) == (1, 2, 3)
    assert combinatorial_neighborhood(g, (0, 4)) == (0, 1, 3, 4)


def test_vertex_mask_takes_any_iterable_of_integer_ids():
    g = path_graph(5)
    want = [False, True, False, True, False]
    for ids in ([3, 1], (1, 3), {3, 1}, range(1, 4, 2), np.array([3, 1]),
                np.array([1, 3], dtype=np.uint8), iter([1, 3]), [1, 3, 3]):
        mask = vertex_mask(g, ids)
        assert mask.dtype == bool and mask.tolist() == want
    for empty in ([], (), set(), range(0), np.array([], dtype=int)):
        assert not vertex_mask(g, empty).any()
    # a fresh mask per call: a caller may write to it
    mask = vertex_mask(g, [0])
    mask[4] = True
    assert vertex_mask(g, [0]).tolist() == [True] + [False] * 4


@pytest.mark.parametrize("ids", [
    [-1], [5], [0, 5], [1.5], [1.0], np.array([0.0, 1.0]),
    np.array([True, False, True, False, False]), [True], ["1"], "12",
    np.array([[0, 1]]), 3, None, [[0], [1, 2]],
], ids=repr)
def test_vertex_mask_rejects_other_ids(ids):
    with pytest.raises(InputError, match=r"integers in 0\.\.4"):
        vertex_mask(path_graph(5), ids)
    with pytest.raises(InputError):
        combinatorial_neighborhood(path_graph(5), ids)


def test_vertex_id_has_the_mask_contract():
    g = path_graph(5)
    assert vertex_id(g, 4) == 4 and type(vertex_id(g, np.int32(2))) is int
    for x in (-1, 5, 1.5, 1.0, True, np.bool_(False), "1", None, [1],
              np.array([1]), np.float64(2.0)):
        with pytest.raises(InputError, match=r"integer in 0\.\.4"):
            vertex_id(g, x)


@pytest.mark.parametrize("bad", [-1, 4, 7, 1.5, True, np.float64(1.0), "0",
                                 None], ids=repr)
def test_single_id_accessors_check_their_ids(bad):
    # -1 used to wrap in indptr (neighbors {} and weight 0.0), 4 raised
    # IndexError, 1.5 passed the range test of edge_index and then raised
    # IndexError, True raised TypeError
    g = path_graph(4)
    calls = [lambda: g.neighbors(bad), lambda: g.weight(bad, 2),
             lambda: g.weight(1, bad), lambda: g.edge_index(bad, 2),
             lambda: g.edge_index(1, bad)]
    for call in calls:
        with pytest.raises(InputError, match=r"integer in 0\.\.3"):
            call()


def test_valid_ids_that_are_not_an_edge_keep_their_answers():
    g = path_graph(4)
    assert g.weight(0, 2) == g.weight(1, 1) == 0.0
    assert g.weight(np.int64(2), 1) == 1.0
    assert g.neighbors(np.int32(3)) == {2: 1.0}
    for x, y in ((0, 2), (1, 1), (3, 0)):
        with pytest.raises(KeyError):
            g.edge_index(x, y)
    assert g.edge_index(2, 1) == 1


# -- interchange format -------------------------------------------------------

def test_roundtrip_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = make_random_graph(rng)
        h = loads(dumps(g))
        assert h.n == g.n
        assert np.array_equal(h.mu, g.mu)
        assert sorted(h.edges()) == sorted(g.edges())


def test_roundtrip_extreme_floats():
    # repr-based serialization survives subnormals, near-overflow values
    # and floats with no short decimal form
    g = WeightedGraph(3, [(0, 1, 1e-300), (1, 2, 0.1 + 0.2)],
                      [2.2250738585072014e-308, 1.0, 1.7e308])
    h = loads(dumps(g))
    assert np.array_equal(h.mu, g.mu)
    assert h.weight(0, 1) == 1e-300
    assert h.weight(1, 2) == 0.30000000000000004


def test_file_roundtrip(tmp_path):
    g = make_random_graph(np.random.default_rng(0))
    p = tmp_path / "g.json"
    dump_path(g, p)
    h = load_path(p)
    assert sorted(h.edges()) == sorted(g.edges())
    assert np.array_equal(h.mu, g.mu)


def test_loads_rejects_garbage():
    with pytest.raises(InputError):
        loads("not json at all {")
    with pytest.raises(InputError):
        loads("{}")
    with pytest.raises(InputError, match="missing 'graph <n>' header"):
        loads("mu 0 1.0")
    with pytest.raises(InputError, match="must cover exactly the vertices"):
        loads("graph 2\nmu 0 1.0")


# -- family config files ------------------------------------------------------

def test_family_config_parsing(tmp_path):
    p = tmp_path / "f.cfg"
    p.write_text("# a comment\nfamily ex5.6\nalpha 2.5\ncase 1\n\n")
    name, params = load_family_config(p)
    assert name == "ex5.6"
    assert params == {"alpha": 2.5, "case": 1}
    assert isinstance(params["case"], int)


def test_family_config_errors(tmp_path):
    p = tmp_path / "f.cfg"
    p.write_text("alpha 2\n")
    with pytest.raises(InputError):
        load_family_config(p)          # no family line
    p.write_text("justoneword\n")
    with pytest.raises(InputError):
        load_family_config(p)


# -- family truncations -------------------------------------------------------

def test_ray_truncation_shape():
    fam = build_family("ex5.3a")
    win = 10
    g = fam.truncate(win)
    assert g.n == win
    # leak carries the first dropped edge weight, at the frontier vertex
    assert g.leak == {win - 1: 2.0 ** (win - 1)}
    assert g.frontier == {win - 1}
    for x in range(win - 1):
        assert g.weight(x, x + 1) == 2.0 ** x
        assert g.mu[x] == 2.0 ** -x


def test_line_truncation_shape():
    fam = build_family("ex5.1")
    win = 6
    g = fam.truncate(win)
    assert g.n == 2 * win + 1
    assert g.origin == win          # model coordinate x is vertex win + x
    # both outermost vertices leak the first dropped edge
    assert set(g.leak) == {0, 2 * win}
    assert g.leak[0] == g.leak[2 * win] == 1.0   # ex5.1 has w == 1
    # measure is symmetric in the model coordinate
    assert g.mu[g.origin - 3] == g.mu[g.origin + 3]


def test_tail_ids():
    fam = build_family("ex5.3a")
    (end,) = fam.ends()
    assert fam.tail_ids(end, 7, 10) == tuple(range(7, 10))
    lf = build_family("ex5.1")
    minus, plus = lf.ends()
    origin = lf.truncate(6).origin
    assert lf.tail_ids(plus, 4, 6) == tuple(origin + x for x in (4, 5, 6))
    assert lf.tail_ids(minus, 4, 6) == tuple(origin - x for x in (6, 5, 4))
    with pytest.raises(InputError):
        lf.tail_ids(end, 4, 6)


LINEAR_FAMILIES = [name for name in sorted(REGISTRY)
                   if name not in ("a5.2", "a5.5")      # unsupported
                   and build_family(name).ends()]


@pytest.mark.parametrize("name", LINEAR_FAMILIES)
def test_edges_and_tails_follow_their_end(name):
    # every edge of a truncation takes its length from the end it lies on,
    # at its outward index; tail_ids(end, k, N) is that end's vertices >= k.
    # sigma_fn is called on one index array per end, in edge order, as
    # canonical_lengths calls it: an array power can differ from a scalar
    # one in the last bit (from index 12 on for ex5.1), so the window
    # reaches past the indices where they differ
    fam = build_family(name)
    ends = {e.label: e for e in fam.ends()}
    win = 40
    g = fam.truncate(win)
    lengths = fam.canonical_lengths(g)
    per_end = {}
    for x, y, _ in g.edges():
        a, b = x - g.origin, y - g.origin
        edges, ks = per_end.setdefault(
            "plus" if max(a, b) > 0 else "minus", ([], []))
        edges.append((x, y))
        ks.append(min(abs(a), abs(b)))
    for label, (edges, ks) in per_end.items():
        want = ends[label].sigma_fn(np.array(ks, dtype=float)).tolist()
        assert [lengths.of(x, y) for x, y in edges] == want
    for end in fam.ends():
        sign = -1 if end.label == "minus" else +1
        outward = {i: sign * (i - g.origin) for i in range(g.n)}
        depth = max(outward.values())
        for k in range(depth + 1):
            want = tuple(i for i in range(g.n) if outward[i] >= k)
            assert fam.tail_ids(end, k, win) == want


def test_max_window_respects_float_range():
    # ex5.3a weights are 2^x: window 1024 realizes edges up to 2^1022 and
    # leaks 2^1023, and window 1025 would leak 2^1024 = inf; a smaller cap
    # wins
    fam = build_family("ex5.3a")
    assert fam.max_window(10 ** 9) == 1024
    assert fam.max_window(64) == 64
    # the probe alone bounds every ray: ex5.4 and ex5.5 stop where 4^-x
    # (times (x+1)^2) underflows, codim3 where 8^-x does
    for name, cap in (("ex5.4", 538), ("ex5.5", 538), ("codim3", 359)):
        assert build_family(name).max_window(10 ** 9) == cap, name
    # ex5.1's measure underflows near |x| ~ 990: the probe must stop there
    lf = build_family("ex5.1")
    cap = lf.max_window(10 ** 9)
    assert 500 < cap < 1100
    g = lf.truncate(cap)
    assert np.all(np.isfinite(g.mu)) and np.all(g.mu > 0)
    assert all(math.isfinite(v) and v > 0 for v in g.leak.values())


def test_max_window_below_the_smallest_window():
    # the cap, not the rules, is what is too small
    ray = build_family("ex5.2")
    assert ray.max_window(2) == 2
    with pytest.raises(InputError, match="window cap 1 is below the "
                                         "smallest window 2") as err:
        ray.max_window(1)
    assert not isinstance(err.value, FamilyDefinitionError)
    line = build_family("ex5.1")
    assert line.max_window(1) == 1
    with pytest.raises(InputError, match="window cap 0 is below the "
                                         "smallest window 1"):
        line.max_window(0)


def test_default_window_cap_fits_in_memory():
    # ex5.2's rules stay finite far beyond any budget; the window cap, not
    # the float range, must keep its largest window realizable
    assert build_family("ex5.2").max_window(10 ** 9) == 2 ** 20


def test_max_window_rules_invalid_at_depth_one():
    # w(0, 1) = 0: no window realizes a valid edge
    fam = RayFamily("dead-root",
                    w_fn=lambda x: np.asarray(x, dtype=float),
                    mu_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(FamilyDefinitionError,
                       match="rules invalid near the origin"):
        fam.max_window(64)


def test_truncation_never_reads_invalid_floats():
    # regression: the line truncation evaluates w at one index past the
    # window for the frontier leak, which must stay inside the probed range
    for name in ("ex5.1", "ex5.3", "ex5.4", "ex5.5", "codim3"):
        fam = build_family(name)
        cap = fam.max_window(10 ** 9)
        with np.errstate(over="raise", invalid="raise"):
            fam.truncate(cap)


def test_ends_expose_rules():
    fam = build_family("ex5.3a")
    (end,) = fam.ends()
    assert end.label == "plus"
    assert end.mu_tail(0).value == 2.0
    assert end.res_upper == 1.0
    assert not end.mu_is_infinite()
    assert math.isfinite(end.sigma_tail(0).upper)
    # certified tail sums agree with the closed forms
    assert end.mu_tail(3).value == pytest.approx(2.0 ** -2, rel=1e-15)
    assert end.sigma_tail(0).value == pytest.approx(math.sqrt(2.0 / 3.0),
                                                    rel=1e-15)


@pytest.mark.parametrize("name, params", [("ex5.2", {}),
                                          ("ex5.6", {"alpha": 0.5})])
def test_infinite_measure_is_a_tail_rule(name, params):
    (end,) = build_family(name, params).ends()
    assert end.mu_is_infinite()
    with pytest.raises(InputError, match="measure tail is infinite"):
        end.mu_tail(3)


def test_line_ends_are_labeled():
    fam = build_family("ex5.1")
    labels = sorted(e.label for e in fam.ends())
    assert labels == ["minus", "plus"]
