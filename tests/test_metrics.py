import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iglab.errors import InputError
from iglab.forms import cutoff_eta
from iglab.graphs import WeightedGraph
from iglab.metrics import (EdgeLengths, PathMetric, custom_lengths,
                           discovered_jump_size, intrinsic_check,
                           natural_scaled, sigma0, sigma1,
                           strongly_intrinsic_check)

from conftest import make_random_graph


def path_graph(n, w=1.0, mu=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)],
                         [mu] * n)


# hypothesis strategy: a small random graph described by draws
@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    ws = draw(st.lists(st.floats(1e-6, 4.0), min_size=len(pairs),
                       max_size=len(pairs)))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [(x, y, w) for (x, y), w, k in zip(pairs, ws, keep) if k]
    if not edges:
        edges = [(0, 1, ws[0])]
    mu = draw(st.lists(st.floats(1e-6, 2.0), min_size=n, max_size=n))
    return WeightedGraph(n, edges, mu)


# -- sigma rules ---------------------------------------------------------------

def test_sigma0_hand_example():
    # single edge, w=4, mu=(1,4): Deg = (4, 1), so
    # sigma0 = min(1/2, 1, 1) = 1/2
    g = WeightedGraph(2, [(0, 1, 4.0)], [1.0, 4.0])
    s = sigma0(g)
    assert s.of(0, 1) == 0.5
    assert s.kind == "sigma0"


def test_sigma0_cap_at_one():
    g = WeightedGraph(2, [(0, 1, 0.01)], [1.0, 1.0])
    assert sigma0(g).of(0, 1) == 1.0


def test_sigma1_uses_combinatorial_degree():
    # star with 3 tips: hub has combinatorial degree 3
    g = WeightedGraph(4, [(0, 1, 5.0), (0, 2, 5.0), (0, 3, 5.0)],
                      [1.0] * 4)
    s = sigma1(g)
    assert s.of(0, 1) == pytest.approx(1 / math.sqrt(15), rel=1e-15)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_sigma0_strongly_intrinsic(g):
    cert = strongly_intrinsic_check(g, sigma0(g))
    assert cert.passed
    assert cert.min_slack >= -1e-15


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_sigma1_strongly_intrinsic(g):
    cert = strongly_intrinsic_check(g, sigma1(g))
    assert cert.passed
    assert cert.min_slack >= -1e-15


def test_a_load_whose_square_overflows_is_finite():
    # sigma1 = 1e155 on one edge of weight 1e-310: sigma1^2 overflows, but
    # w sigma1^2 is 1 up to rounding, so both certificates pass
    g = WeightedGraph(2, [(0, 1, 1e-310)], [1.0, 1.0])
    for cert in (strongly_intrinsic_check(g, sigma1(g)),
                 intrinsic_check(g, PathMetric(sigma1(g)))):
        assert cert.passed
        assert 0.0 <= cert.min_slack <= 1e-15


def test_certificate_flags_violation():
    g = WeightedGraph(2, [(0, 1, 4.0)], [1.0, 1.0])
    bad = custom_lengths(g, {(0, 1): 10.0})
    cert = strongly_intrinsic_check(g, bad)
    assert not cert.passed
    assert cert.min_slack < 0
    d = cert.to_dict()
    assert d["verdict"] is False and "min_slack" in d


def test_natural_scaled():
    g = path_graph(5)           # Deg <= 2
    s = natural_scaled(g, 2.0)
    for x, y, _ in g.edges():
        assert s.of(x, y) == 1 / math.sqrt(2.0)
    cert = strongly_intrinsic_check(g, s)
    assert cert.passed
    with pytest.raises(InputError):
        natural_scaled(g, 1.0)  # Deg = 2 > 1 at interior vertices
    with pytest.raises(InputError, match="K must be finite and positive"):
        natural_scaled(g, 0)


def test_certificates_reject_another_graphs_lengths():
    g, h = path_graph(4), path_graph(5)
    with pytest.raises(InputError, match="lengths live on a different graph"):
        strongly_intrinsic_check(g, sigma0(h))
    with pytest.raises(InputError, match="metric lives on a different graph"):
        intrinsic_check(g, PathMetric(sigma0(h)))


def test_custom_lengths_validation():
    g = path_graph(3)
    with pytest.raises(InputError):
        custom_lengths(g, {(0, 1): 1.0})          # missing edge (1,2)
    with pytest.raises(InputError):
        custom_lengths(g, {(0, 1): 1.0, (1, 2): -1.0})


# -- path metric ---------------------------------------------------------------

def test_distances_on_weighted_cycle():
    # 4-cycle with distinct lengths; shortest arc wins
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                          (3, 0, 1.0)], [1.0] * 4)
    lens = custom_lengths(g, {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 4.0,
                              (3, 0): 1.0})
    m = PathMetric(lens)
    assert m.distance(0, 2) == 0.75          # via 1, not via 3
    assert m.distance(1, 3) == pytest.approx(1.5)   # via 0
    assert m.distance(0, 0) == 0.0
    d = m.distances_from(0)
    assert d[3] == 1.0
    # the memoized array is shared by every caller, so it is read-only
    assert m.distances_from(0) is d
    with pytest.raises(ValueError):
        d[3] = 0.0


def test_unreachable_vertex_is_infinite():
    g = WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3)
    m = PathMetric(sigma0(g))
    assert math.isinf(m.distance(0, 2))
    assert 2 not in m.ball(0, 1e9)


def test_ball_and_eccentricity():
    g = path_graph(5)
    m = PathMetric(custom_lengths(g, {(i, i + 1): 1.0 for i in range(4)}))
    assert m.ball(0, 2.5) == (0, 1, 2)
    assert m.eccentricity(2) == 2.0


def test_metric_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = make_random_graph(rng, n_max=7)
        m = PathMetric(sigma0(g))
        d = np.array([m.distances_from(x) for x in range(g.n)])
        for x in range(g.n):
            for y in range(g.n):
                for z in range(g.n):
                    if all(map(math.isfinite, (d[x][y], d[y][z], d[x][z]))):
                        assert d[x][z] <= d[x][y] + d[y][z] + 1e-12


def test_jump_size_sigma0_at_most_one():
    rng = np.random.default_rng(9)
    for _ in range(40):
        g = make_random_graph(rng)
        m = PathMetric(sigma0(g))
        s = discovered_jump_size(m)
        assert s <= 1.0 + 1e-15
        # the jump size is attained by some edge distance
        assert any(abs(m.distance(x, y) - s) < 1e-15 for x, y, _ in g.edges())


def test_intrinsic_check_on_path_metric():
    # d(x,y) <= sigma0(x,y) for adjacent vertices, so the path metric is
    # intrinsic whenever the edge lengths are
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = make_random_graph(rng, n_max=8)
        cert = intrinsic_check(g, PathMetric(sigma0(g)))
        assert cert.passed
        assert cert.min_slack >= -1e-15


def test_edge_lengths_validation():
    g = path_graph(3)
    with pytest.raises(InputError):
        custom_lengths(g, {(0, 1): 1.0, (1, 2): float("nan")}, kind="x")
    with pytest.raises(InputError, match=r"edge \(1,2\): length must be"):
        EdgeLengths(g, [1.0, float("nan")], kind="x")
    with pytest.raises(InputError, match="one length per edge"):
        EdgeLengths(g, [1.0], kind="x")


def _dict_built_values(g, spec):
    """The per-edge array the dict form of EdgeLengths used to build."""
    values = np.full(g.edge_count(), np.nan)
    for (x, y), s in spec.items():
        values[g.edge_index(x, y)] = s
    return values


def test_custom_lengths_from_a_dict_or_a_callable_is_byte_equal():
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = make_random_graph(rng)
        lengths = rng.uniform(1e-3, 3.0, size=g.edge_count())
        # each edge keyed in a random orientation
        spec = {((x, y) if rng.random() < 0.5 else (y, x)): s
                for (x, y, _), s in zip(g.edges(), lengths.tolist())}
        want = _dict_built_values(g, spec).tobytes()
        assert custom_lengths(g, spec).values.tobytes() == want
        fn = lambda x, y: spec.get((x, y), spec.get((y, x)))
        from_fn = custom_lengths(g, fn, kind="k")
        assert from_fn.values.tobytes() == want and from_fn.kind == "k"


@pytest.mark.parametrize("spec, message", [
    ({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0},
     "length given for non-edge (0,2)"),
    ({(0, 1): 1.0, (2, 1): -1.0}, "edge (2,1): length must be positive"),
    ({(1, 0): 1.0}, "missing lengths, e.g. for edge (1, 2)"),
    (lambda x, y: 1.0 - x, "edge (1,2): length must be positive"),
])
def test_custom_lengths_errors_keep_their_messages(spec, message):
    with pytest.raises(InputError) as err:
        custom_lengths(path_graph(3), spec)
    assert str(err.value) == message


@pytest.mark.parametrize("key", [(1.5, 2), (-1, 2), (1, 7), (True, 1)],
                         ids=repr)
def test_custom_lengths_rejects_keys_that_are_not_vertex_ids(key):
    # (1.5, 2) used to raise IndexError and (-1, 2) to set edge (2, 3)
    with pytest.raises(InputError, match=r"integer in 0\.\.3"):
        custom_lengths(path_graph(4), {key: 1.0})


@pytest.mark.parametrize("bad", [-1, 4, 1.5, True, "0", np.float64(1.0),
                                 None, [0]], ids=repr)
def test_single_vertex_ids_are_checked(bad):
    # at -1 the metric used to answer for vertex 3 and memoize it under -1;
    # 1.5 answered for vertex 1, and 4 raised scipy's ValueError
    m = PathMetric(sigma0(path_graph(4)))
    calls = [lambda: m.distances_from(bad), lambda: m.distance(0, bad),
             lambda: m.distance(bad, 0), lambda: m.ball(bad, 1.0),
             lambda: m.eccentricity(bad),
             lambda: cutoff_eta(m, bad, 0.1, 1.0)]
    for call in calls:
        with pytest.raises(InputError, match=r"integer in 0\.\.3"):
            call()


def test_distances_are_memoized_per_vertex_id():
    m = PathMetric(sigma0(path_graph(4)))
    d = m.distances_from(2)
    assert m.distances_from(np.int64(2)) is d
    assert m.distances_from(np.uint8(2)) is d
    assert m.distance(np.int32(3), 3) == 0.0
