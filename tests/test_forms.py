import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iglab.errors import InputError
from iglab.forms import (VertexFunction, caccioppoli_check, cutoff_eta,
                         energy, form_report, gradient_pairing_all,
                         gradient_sq_all, green_identity_check, laplacian_all,
                         leibniz_check, norm_sq, qnorm)
from iglab.gallery import build_family
from iglab.graphs import WeightedGraph
from iglab.metrics import PathMetric, custom_lengths, sigma0

from conftest import make_random_graph, random_values


def path_graph(n, w=1.0, mu=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)],
                         [mu] * n)


# -- vertex functions ----------------------------------------------------------

def test_vertex_function_constructors():
    g = path_graph(3)
    assert np.array_equal(VertexFunction.constant(g, 2.0).values, [2, 2, 2])
    assert np.array_equal(VertexFunction.indicator(g, [0, 2]).values,
                          [1, 0, 1])
    f = VertexFunction.from_dict(g, {1: 5.0}, default=-1.0)
    assert np.array_equal(f.values, [-1, 5, -1])
    assert f.support() == (0, 1, 2)
    assert VertexFunction.indicator(g, [1]).support() == (1,)


@pytest.mark.parametrize("ids", [[-1], [3], [1.5], [True], ["0"]],
                         ids=repr)
def test_indicator_and_from_dict_reject_other_ids(ids):
    # -1 used to mark, and set, the last vertex; 3 raised IndexError
    g = path_graph(3)
    with pytest.raises(InputError, match="vertex ids"):
        VertexFunction.indicator(g, ids)
    with pytest.raises(InputError, match="vertex ids"):
        VertexFunction.from_dict(g, {ids[0]: 5.0})


def test_indicator_and_from_dict_of_no_vertex():
    g = path_graph(3)
    assert not VertexFunction.indicator(g, set()).values.any()
    assert VertexFunction.from_dict(g, {}, default=2.0).values.tolist() \
        == [2.0] * 3
    f = VertexFunction.from_dict(g, {np.int64(2): 7, 0: 0.5})
    assert f.values.tolist() == [0.5, 0.0, 7.0]


def test_vertex_function_length_mismatch():
    g = path_graph(3)
    with pytest.raises(InputError):
        VertexFunction(g, [1.0, 2.0])


def test_clip_is_normal_contraction():
    g = path_graph(4)
    f = VertexFunction(g, [-1.0, 0.5, 2.0, 0.25])
    c = f.clip()
    assert np.array_equal(c.values, [0.0, 0.5, 1.0, 0.25])
    assert energy(c) <= energy(f) + 1e-12


# -- energy / laplacian hand values ---------------------------------------------

def test_energy_hand_value():
    g = path_graph(3, w=2.0)
    f = VertexFunction(g, [0.0, 1.0, 3.0])
    assert energy(f) == 2 * 1.0 + 2 * 4.0
    assert norm_sq(f) == 0.0 + 1.0 + 9.0
    assert qnorm(f) == math.sqrt(20.0)


def test_squares_are_correctly_rounded():
    # libm's pow gives t ** 2 one ulp low here (8.928520618513923)
    t = 2.9880630211750763
    f = VertexFunction(path_graph(2), [0.0, t])
    want = float(Fraction(t) ** 2)
    assert want == 8.928520618513925
    assert energy(f) == want and norm_sq(f) == want


def test_energy_that_overflows_is_inf():
    # a square past the float range is inf, as t * t gives it; Python's
    # float ** raises OverflowError on it
    f = VertexFunction(path_graph(2), [0.0, 1e200])
    with np.errstate(over="ignore"):
        assert energy(f) == math.inf


def test_laplacian_hand_value():
    # P3, w = 1, mu = (1, 2, 1), f = (0, 1, 0):
    # Delta f(1) = (1 (1-0) + 1 (1-0)) / 2 = 1
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 2.0, 1.0])
    f = VertexFunction(g, [0.0, 1.0, 0.0])
    assert np.array_equal(laplacian_all(f), [-1.0, 1.0, -1.0])


def test_gradient_sq_and_pairing():
    g = path_graph(3, w=3.0)
    f = VertexFunction(g, [0.0, 2.0, 2.0])
    h = VertexFunction(g, [1.0, 0.0, 0.0])
    assert gradient_sq_all(f)[1] == 3 * 4.0
    assert gradient_pairing_all(f, h)[1] == 3 * (2 * -1) + 0.0
    # polarization: 2 <grad f, grad f> = 2 |grad f|^2
    assert np.array_equal(gradient_pairing_all(f, f), gradient_sq_all(f))


def test_form_report():
    g = path_graph(3)
    rep = form_report(VertexFunction(g, [1.0, 0.0, 0.0]))
    d = rep.to_dict()
    assert d["energy"] == 1.0
    assert d["norm_sq"] == 1.0
    assert d["qnorm"] == pytest.approx(math.sqrt(2.0), rel=1e-15)


# -- the finite-graph identities -------------------------------------------------

def test_green_identity_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        g = make_random_graph(rng)
        u = VertexFunction(g, random_values(rng, g.n))
        v = VertexFunction(g, random_values(rng, g.n))
        chk = green_identity_check(u, v)
        assert chk.passed, chk
        assert chk.residual <= 1e-9 * max(1.0, chk.scale)


def test_leibniz_random_graphs():
    rng = np.random.default_rng(43)
    for _ in range(200):
        g = make_random_graph(rng)
        f, h, k = (VertexFunction(g, random_values(rng, g.n))
                   for _ in range(3))
        chk = leibniz_check(f, h, k)
        assert chk.passed, chk
        assert chk.residual <= 1e-9 * max(1.0, chk.scale)


def test_caccioppoli_random_graphs():
    rng = np.random.default_rng(44)
    for _ in range(200):
        g = make_random_graph(rng)
        u = VertexFunction(g, random_values(rng, g.n))
        v = VertexFunction(g, random_values(rng, g.n))
        chk = caccioppoli_check(u, v)
        assert chk.passed, chk


def test_identity_checks_scale_invariant():
    # residuals are normalized, so scaling u and v by 1e8 must not move
    # them more than rounding
    g = make_random_graph(np.random.default_rng(4))
    rng = np.random.default_rng(5)
    u = random_values(rng, g.n)
    v = random_values(rng, g.n)
    small = green_identity_check(VertexFunction(g, u), VertexFunction(g, v))
    big = green_identity_check(VertexFunction(g, u * 1e8),
                               VertexFunction(g, v * 1e8))
    assert big.passed and small.passed
    assert (big.residual / big.scale
            <= 100 * small.residual / small.scale + 1e-15)


@given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_contraction_property(vals):
    g = path_graph(4, w=1.5, mu=0.5)
    f = VertexFunction(g, vals)
    assert energy(f.clip()) <= energy(f) + 1e-12


def test_green_identity_includes_boundary_term():
    # on a graph with a leak the Green identity needs the frontier term;
    # the check must still pass
    fam = build_family("ex5.3a")
    g = fam.truncate(12)
    rng = np.random.default_rng(77)
    u = VertexFunction(g, random_values(rng, g.n))
    v = VertexFunction(g, random_values(rng, g.n))
    chk = green_identity_check(u, v)
    assert chk.passed


# -- cutoff functions ------------------------------------------------------------

def unit_metric(n):
    g = path_graph(n)
    return PathMetric(custom_lengths(
        g, {(i, i + 1): 1.0 for i in range(n - 1)}))


def test_cutoff_eta_shape():
    m = unit_metric(7)
    eta = cutoff_eta(m, 0, 2.0, 5.0)
    assert np.allclose(eta.values, [1, 1, 1, 2 / 3, 1 / 3, 0, 0])
    with pytest.raises(InputError):
        cutoff_eta(m, 0, 3.0, 3.0)
    with pytest.raises(InputError):
        cutoff_eta(m, 0, -1.0, 3.0)


def test_cutoff_eta_zero_on_unreachable_component():
    g = WeightedGraph(3, [(0, 1, 1.0)], [1.0] * 3)
    m = PathMetric(sigma0(g))
    eta = cutoff_eta(m, 0, 0.1, 0.5)
    assert eta.values[2] == 0.0


def test_cutoff_gradient_bound_random_pairs():
    # |grad eta|^2(x) <= mu(x) / (R - r)^2 whenever the lengths are
    # intrinsic; spot-check two families here, the full sweep runs in the
    # acceptance suite
    rng = np.random.default_rng(101)
    for name in ("ex5.4", "ex5.1"):
        fam = build_family(name)
        g = fam.truncate(fam.max_window(48))
        m = PathMetric(fam.canonical_lengths(g))
        x0 = g.origin
        d = m.distances_from(x0)
        ecc = float(np.max(d[np.isfinite(d)]))
        for _ in range(25):
            r = rng.uniform(0.0, 0.9 * ecc)
            R = r + rng.uniform(1e-3, 1.2 * ecc)
            eta = cutoff_eta(m, x0, r, R)
            bound = 1.0 / (R - r) ** 2
            assert np.all(gradient_sq_all(eta) <= g.mu * bound + 1e-12)
