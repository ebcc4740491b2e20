"""series.prefix_fsums against math.fsum of every prefix, float for float.

reference_residual below is the lambda recursion's check as it ran before
the prefix sums came from prefix_fsums: one math.fsum per prefix, so
quadratic in the window. _ray_lambda_solve must report the same residual,
compared by its hex string, on every golden end at all three budgets.
"""

import math

import numpy as np
import pytest

from iglab.classify import BUDGETS, _ray_lambda_solve
from iglab.gallery import GOLDEN_RUNS, build_family
from iglab.series import prefix_fsums


def fsum_prefixes(values):
    return [math.fsum(values[:k + 1]) for k in range(len(values))]


def assert_hex_equal(got, want):
    assert [v.hex() for v in got] == [v.hex() for v in want]


def wide_floats(rng, n):
    """n floats of random sign whose magnitudes run from the smallest
    subnormal to 1e300: random mantissas at random binary exponents."""
    mant = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
    exps = rng.integers(-1074, 997, n)
    return [math.ldexp(m, int(e)) for m, e in zip(mant, exps)]


@pytest.mark.parametrize("seed", range(8))
def test_seeded_lists_from_subnormals_to_1e300(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 7, 64, 199, 400):
        values = wide_floats(rng, n)
        assert_hex_equal(prefix_fsums(values), fsum_prefixes(values))
        # positive only, as the lambda terms are
        values = [abs(v) for v in values]
        assert_hex_equal(prefix_fsums(values), fsum_prefixes(values))


def test_every_length_from_1_to_400():
    rng = np.random.default_rng(400)
    values = wide_floats(rng, 400)
    for n in range(1, 401):
        assert_hex_equal(prefix_fsums(values[:n]), fsum_prefixes(values[:n]))


@pytest.mark.parametrize("values", [
    [0.0], [-0.0], [0.0, -0.0, 0.0], [-0.0, -0.0],
    [5e-324, -5e-324, 5e-324], [1.0, -1.0, 0.0],
    [0.1] * 400, [1e300] * 100 + [-1e300] * 100,
    # half-way cases: 1 + 2^-53 ties down to 1, 1 + 3 2^-53 up to
    # 1 + 2^-51, 2^53 + 1 down to 2^53
    [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -53],
    [1.0 + 2.0 ** -52, 2.0 ** -53], [2.0 ** 53, 1.0, 1.0],
    [1e16, 1.0, -1e16], [1.0, 1e100, 1.0, -1e100],
    # sums that cancel down to a subnormal
    [2.0 ** -1022, -2.0 ** -1022 + 5e-324], [1.0, 5e-324, -1.0],
    [2.0 ** -1070, 2.0 ** -1074, -2.0 ** -1070],
])
def test_zeros_repeats_and_ties(values):
    assert_hex_equal(prefix_fsums(values), fsum_prefixes(values))


def test_an_empty_list():
    assert prefix_fsums([]) == []


LINEAR = [(label, name, params) for label, name, params, _ in GOLDEN_RUNS
          if build_family(name, params).ends()]


def ray_solve(w_fn, mu_fn, window):
    """_ray_lambda_solve on w over the edges 0..window-2 and mu over the
    vertices 0..window-1."""
    xs = np.arange(window, dtype=float)
    return _ray_lambda_solve(np.asarray(w_fn(xs[:-1]), dtype=float),
                             np.asarray(mu_fn(xs), dtype=float))


def lambda_terms(end, window):
    """u(y) mu(y) over the vertices the recursion keeps, as its check
    sums them."""
    sol = ray_solve(end.w_fn, end.mu_fn, window)
    mu = np.asarray(end.mu_fn(np.arange(window, dtype=float)), dtype=float)
    return (sol.u * mu[:sol.window]).tolist()


@pytest.mark.parametrize("label, name, params", LINEAR,
                         ids=[r[0] for r in LINEAR])
def test_every_golden_ends_lambda_terms(label, name, params):
    for end in build_family(name, params).ends():
        for budget in BUDGETS.values():
            terms = lambda_terms(end, budget.lambda_window)
            assert_hex_equal(prefix_fsums(terms), fsum_prefixes(terms))


def reference_residual(w_fn, mu_fn, window):
    """The residual of _ray_lambda_solve as it was computed before
    prefix_fsums: the same recursion and cut, one fsum per prefix."""
    xs = np.arange(window, dtype=float)
    w = np.asarray(w_fn(xs[:-1]), dtype=float)
    mu = np.asarray(mu_fn(xs), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_w = (1.0 / w).tolist()
    mu_l = mu.tolist()
    u = [1.0]
    s = 0.0
    for x in range(window - 1):
        s += u[x] * mu_l[x]
        u.append(u[x] + inv_w[x] * s)
    u = np.array(u)
    with np.errstate(over="ignore", invalid="ignore"):
        inc = np.diff(u)
        l2_terms = u * u * mu
        en_terms = w * inc * inc
    # the rule values themselves must be finite and positive
    bad = ~(np.isfinite(u) & np.isfinite(l2_terms) & np.isfinite(mu)
            & (mu > 0.0))
    bad[1:] |= ~(np.isfinite(en_terms) & np.isfinite(w) & (w > 0.0))
    if bad.any():
        window = int(np.argmax(bad))
        u, mu = u[:window], mu[:window]
        w = w[:window - 1]
    scale = max(1.0, float(np.max(np.abs(u))))
    um = (u * mu).tolist()
    sums = np.array([math.fsum(um[:x + 1]) for x in range(window - 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(u[1:] - u[:-1] - sums / w)
    return window, max([0.0, *dev.tolist()]) / scale


@pytest.mark.parametrize("label, name, params", LINEAR,
                         ids=[r[0] for r in LINEAR])
def test_lambda_residuals_match_the_quadratic_check(label, name, params):
    for end in build_family(name, params).ends():
        for budget in BUDGETS.values():
            win = budget.lambda_window
            sol = ray_solve(end.w_fn, end.mu_fn, win)
            window, res = reference_residual(end.w_fn, end.mu_fn, win)
            assert sol.window == window
            assert sol.residual.hex() == res.hex()
