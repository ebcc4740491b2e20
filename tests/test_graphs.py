import math
import os

import numpy as np
import pytest

from iglab.errors import FamilyDefinitionError, InputError
from iglab.gallery import REGISTRY, build_family
from iglab.graphs import (WeightedGraph, combinatorial_neighborhood, dumps,
                          dump_path, load_family_config, load_path, loads,
                          vertex_set, weighted_degree)

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
            assert g.row_sum(x) == g.recomputed_row_sum(x)


def test_degree_and_total_measure():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 4.0)], [0.5, 1.0, 2.0])
    assert g.degree(0) == 4.0            # 2 / 0.5
    assert g.degree(1) == 6.0
    assert weighted_degree(g, 2) == 2.0
    assert g.combinatorial_degree(1) == 2
    assert g.total_measure() == 3.5


def test_leak_and_frontier():
    g = WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3, frontier=(2,),
                      leak={1: 0.25})
    assert g.frontier == {1, 2}
    assert g.leak == {1: 0.25}
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1.0)], [1.0, 1.0], leak={0: -1.0})


def test_is_connected():
    assert path_graph(4).is_connected()
    g = WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3)
    assert not g.is_connected()


def test_vertex_set_and_neighborhood():
    g = path_graph(5)
    assert vertex_set(g, [3, 1, 3]) == (1, 3)
    with pytest.raises(InputError):
        vertex_set(g, [7])
    assert combinatorial_neighborhood(g, (2,)) == (1, 2, 3)
    assert combinatorial_neighborhood(g, (0, 4)) == (0, 1, 3, 4)


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
    assert fam.model_to_id(0, win) == win
    assert fam.model_to_id(-win, win) == 0
    # both outermost vertices leak the first dropped edge
    assert set(g.leak) == {0, 2 * win}
    assert g.leak[0] == g.leak[2 * win] == 1.0   # ex5.1 has w == 1
    # measure is symmetric in the model coordinate
    assert g.mu[fam.model_to_id(-3, win)] == g.mu[fam.model_to_id(3, win)]


def test_tail_ids():
    fam = build_family("ex5.3a")
    (end,) = fam.ends()
    assert fam.tail_ids(end, 7, 10) == tuple(range(7, 10))
    lf = build_family("ex5.1")
    minus, plus = lf.ends()
    assert lf.tail_ids(plus, 4, 6) == tuple(lf.model_to_id(x, 6)
                                            for x in (4, 5, 6))
    assert lf.tail_ids(minus, 4, 6) == tuple(lf.model_to_id(-x, 6)
                                             for x in (6, 5, 4))
    with pytest.raises(InputError):
        lf.tail_ids(end, 4, 6)


LINEAR_FAMILIES = [name for name, spec in sorted(REGISTRY.items())
                   if spec.supported and build_family(name).ends()]


@pytest.mark.parametrize("name", LINEAR_FAMILIES)
def test_edges_and_tails_follow_their_end(name):
    # every edge of a truncation takes its length from the end it lies on,
    # at its outward index; tail_ids(end, k, N) is that end's vertices >= k
    fam = build_family(name)
    ends = {e.label: e for e in fam.ends()}
    win = 12
    g = fam.truncate(win)
    lengths = fam.canonical_lengths(g)
    for x, y, _ in g.edges():
        a, b = g.labels[x], g.labels[y]
        end = ends["plus" if max(a, b) > 0 else "minus"]
        k = min(abs(a), abs(b))
        assert lengths.of(x, y) == float(end.sigma_fn(np.float64(k)))
    for end in fam.ends():
        sign = -1 if end.label == "minus" else +1
        outward = {i: sign * g.labels[i] for i in range(g.n)}
        depth = max(outward.values())
        for k in range(depth + 1):
            want = tuple(i for i in range(g.n) if outward[i] >= k)
            assert fam.tail_ids(end, k, win) == want


def test_max_window_respects_float_range():
    # ex5.3a weights are 2^x; the declared cap (1000) is inside the float
    # range so it wins
    fam = build_family("ex5.3a")
    assert fam.max_window(10 ** 9) == 1000
    assert fam.max_window(64) == 64
    # ex5.1's measure underflows near |x| ~ 990: the probe must stop there
    lf = build_family("ex5.1")
    cap = lf.max_window(10 ** 9)
    assert 500 < cap < 1100
    g = lf.truncate(cap)
    assert np.all(np.isfinite(g.mu)) and np.all(g.mu > 0)
    assert all(math.isfinite(v) and v > 0 for v in g.leak.values())


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
    assert end.total_measure() == 2.0
    assert end.res_upper == 1.0
    assert not end.mu_is_infinite()
    assert end.has_boundary_point()
    # certified tail sums agree with the closed forms
    assert end.mu_tail(3).value == pytest.approx(2.0 ** -2, rel=1e-15)
    assert end.sigma_tail(0).value == pytest.approx(math.sqrt(2.0 / 3.0),
                                                    rel=1e-15)


def test_line_ends_are_labeled():
    fam = build_family("ex5.1")
    labels = sorted(e.label for e in fam.ends())
    assert labels == ["minus", "plus"]
