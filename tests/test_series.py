import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import iglab
from iglab import gallery
from iglab.classify import classify
from iglab.completeness import hopf_rinow_report
from iglab.errors import FamilyDefinitionError, InputError
from iglab.gallery import build_family
from iglab.graphs import RayFamily
from iglab.series import (TAIL_DEPTH, TAIL_MAX_TERMS, TAIL_REL_TOL, TailSum,
                          bounded_tail, geometric_tail)


def tail_terms(r):
    """The number of indices geometric_tail passes to its one rule call."""
    n = math.ceil(math.log((1.0 - r) * TAIL_REL_TOL / 2) / math.log(r)) + 1
    return min(n, TAIL_MAX_TERMS)


def quadratic_loop(floats, ratio_bound, rel_tol=1e-13):
    """geometric_tail as it was written before: math.fsum over the whole
    term list after every new term. Returns the TailSum and the number of
    floats summed."""
    terms = []
    for t in floats:
        terms.append(t)
        remainder = t * ratio_bound / (1.0 - ratio_bound)
        partial = math.fsum(terms)
        if remainder <= rel_tol * partial or t == 0.0:
            break
    return TailSum(partial, remainder, exact=False), len(terms)


def rule_floats(term_fn, start, n):
    """term_fn's floats over start .. start + n - 1, from one array call."""
    with np.errstate(all="ignore"):
        return term_fn(np.arange(start, start + n, dtype=float)).tolist()


def quadratic_geometric_tail(term_fn, start, ratio_bound, max_terms=200000):
    """The quadratic loop over the floats of one array call of term_fn:
    the helper's array floats, so value, bound and stop index compare bit
    for bit (scalar and array calls of a rule may differ in the last bit)."""
    return quadratic_loop(rule_floats(term_fn, start, max_terms),
                          ratio_bound)[0]


@pytest.mark.parametrize("term_fn, ratio", [
    (lambda x: 0.995 ** x, 0.995),
    (lambda x: 0.995 ** x / (1.0 + x), 0.995),
    (lambda x: 0.5 ** x, 0.5),
    (lambda x: 1e-300 * 0.5 ** x, 0.5),      # sums below the normal range
    (lambda x: np.where(x < 7, 0.5 ** x, 0.0), 0.5),
], ids=["slow", "slow-mixed", "half", "subnormal", "finite"])
def test_geometric_tail_matches_the_quadratic_loop(term_fn, ratio):
    for start in (0, 50):
        assert geometric_tail(term_fn, start, ratio) == \
            quadratic_geometric_tail(term_fn, start, ratio)


@pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_geometric_tail_needs_a_ratio_bound_in_zero_to_one(ratio):
    with pytest.raises(ValueError, match="must lie in"):
        geometric_tail(lambda x: 0.5 ** x, 0, ratio)


def test_geometric_tail_stops_at_its_term_cap():
    # ratio 1 - 1e-6: after TAIL_MAX_TERMS terms the remainder bound is
    # still about 8.2e5, four times the partial sum
    r = 1.0 - 1e-6
    floats = rule_floats(lambda x: r ** x, 0, TAIL_MAX_TERMS)
    ts = geometric_tail(lambda x: r ** x, 0, r)
    assert ts.value == math.fsum(floats)
    assert ts.bound == floats[-1] * r / (1.0 - r)
    assert 8.1e5 < ts.bound < 8.3e5


def test_ex51_tails_match_the_quadratic_loop():
    # ex5.1's two series are geometric tails with ratios 2^-1/2 and 1/2;
    # its two ends hold the same rules
    minus, plus = build_family("ex5.1").ends()
    assert (minus.sigma_fn, minus.mu_fn) == (plus.sigma_fn, plus.mu_fn)
    for k in range(0, 60, 3):
        sigma = quadratic_geometric_tail(plus.sigma_fn, k, 2.0 ** -0.5)
        mu = quadratic_geometric_tail(plus.mu_fn, k, 0.5)
        for end in (minus, plus):
            assert end.sigma_tail(k) == sigma
            assert end.mu_tail(k) == mu


def _ex52_length_tail(k):
    (end,) = build_family("ex5.2").ends()
    return end.sigma_tail(k), rule_floats(end.sigma_fn, k, TAIL_DEPTH)


def _ex51_tails(k):
    (end, _) = build_family("ex5.1").ends()
    for rule, ts, ratio in ((end.sigma_fn, end.sigma_tail(k), 2.0 ** -0.5),
                            (end.mu_fn, end.mu_tail(k), 0.5)):
        floats = rule_floats(rule, k, 200000)
        yield ts, floats[:quadratic_loop(floats, ratio)[1]]


@pytest.mark.parametrize("k", [0, 1, 5, 17, 100])
def test_tail_bounds_enclose_the_exact_sum_of_the_floats(k):
    # S is the exact sum of the floats the helper summed: the true tail of
    # those floats lies in [S, S + bound], and lower/upper enclose it
    tails = [_ex52_length_tail(k), *_ex51_tails(k)]
    for ts, floats in tails:
        exact = sum(map(Fraction, floats))
        assert not ts.exact
        assert ts.value == math.fsum(floats)
        assert Fraction(ts.lower) <= max(exact - Fraction(ts.bound), 0)
        assert exact + Fraction(ts.bound) <= Fraction(ts.upper)


def test_only_summed_tails_round_outward():
    assert TailSum(2.0, 0.5).upper == 2.5
    assert TailSum(2.0, 0.5).lower == 1.5
    assert TailSum(1.0, 2.0).lower == 0.0
    assert TailSum(math.inf).upper == math.inf
    ts = TailSum(1.0, 0.25, exact=False)
    assert ts.upper == 1.25 + 2 * math.ulp(1.25)
    assert ts.lower == 0.75 - 2 * math.ulp(0.75)
    assert TailSum(1e-20, 1.0, exact=False).lower == 0.0


def _nan_at(i):
    return lambda x: np.where(x == i, math.nan, 0.5 ** x)


def _negative_at(i):
    return lambda x: np.where(x == i, -1.0, 0.5 ** x)


def _scalar(x):
    return 0.5


@pytest.mark.parametrize("rule, match", [
    (_nan_at(3), "gave nan at index 3"),
    (_negative_at(3), "gave -1.0 at index 3"),
    (_scalar, "one float per index"),
], ids=["nan", "negative", "not-vectorized"])
def test_a_bad_term_is_a_family_error(rule, match):
    # ValueError (existing callers' check) and InputError (the gallery
    # records it as the run's error)
    with pytest.raises(FamilyDefinitionError, match=match):
        geometric_tail(rule, 0, 0.5)
    with pytest.raises(FamilyDefinitionError, match=match):
        bounded_tail(rule, 0, lambda d: 0.0)
    assert issubclass(FamilyDefinitionError, InputError)


def test_geometric_tail_reads_no_term_past_its_stop():
    # 0.5^x stops near x = 45, inside its one call of 47 indices, so its
    # NaN at 100 is not evaluated, while bounded_tail sums every term
    ts = geometric_tail(_nan_at(100), 0, 0.5)
    assert ts == quadratic_geometric_tail(lambda x: 0.5 ** x, 0, 0.5)
    with pytest.raises(FamilyDefinitionError, match="at index 100"):
        bounded_tail(_nan_at(100), 0, lambda d: 0.0)


def test_a_nan_length_is_not_an_infinite_one():
    fam = RayFamily(
        "nanlength", w_fn=gallery._ones, mu_fn=gallery._ones,
        sigma_fn=_nan_at(7),
        sigma_tail_fn=lambda k: bounded_tail(_nan_at(7), k, lambda d: 0.0),
        mu_tail_fn=lambda k: math.inf)
    with pytest.raises(FamilyDefinitionError, match="at index 7"):
        hopf_rinow_report(fam)


def _recording(helper, calls):
    """helper, with the index arrays each call passes to its term rule,
    then its result, appended to calls[(helper name, rule, start, args)]."""
    def wrapped(term_fn, start, *args):
        seen = calls.setdefault((helper.__name__, term_fn, start, args), [])

        def rule(x):
            seen.append(np.array(x))
            return term_fn(x)
        ts = helper(rule, start, *args)
        seen.append(ts)
        return ts
    return wrapped


def test_tail_rules_are_called_once_per_tail(monkeypatch):
    calls = {}
    for helper in (bounded_tail, geometric_tail):
        monkeypatch.setattr(gallery, helper.__name__,
                            _recording(helper, calls))
    for name in ("ex5.1", "ex5.2", "ex5.3"):
        classify(build_family(name), budget="standard")
    assert {name for name, *_ in calls} == {"bounded_tail", "geometric_tail"}
    sizes = set()
    for (name, rule, start, args), (xs, ts) in calls.items():
        size = TAIL_DEPTH if name == "bounded_tail" else tail_terms(*args)
        assert xs.tolist() == list(range(start, start + size))
        sizes.add(size)
        if name == "geometric_tail":
            # the one call holds the stop index
            got, _ = quadratic_loop(rule(xs).tolist(), *args)
            assert got == ts and ts.bound <= TAIL_REL_TOL * ts.value
    # ex5.1's two tails, at ratios 1/2 and 2^-1/2
    assert sizes == {TAIL_DEPTH, 47, 93}


def _power_rules(rng):
    """Seeded (rule, ratio, start): c r^k, at its ratio bound exactly, and
    c r^k (1 + k)^-2, which decays faster than r."""
    for _ in range(20):
        r = float(rng.uniform(0.01, 0.999))
        c = 10.0 ** rng.uniform(-100, 100)
        start = int(rng.integers(0, 50))
        yield (lambda x, r=r, c=c: c * r ** x), r, start
        yield (lambda x, r=r, c=c: c * r ** x / (1.0 + x) ** 2), r, start


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geometric_tail_stops_inside_its_one_call(seed):
    for rule, r, start in _power_rules(np.random.default_rng(seed)):
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return rule(x)
        ts = geometric_tail(spy, start, r)
        (xs,) = seen
        assert xs.tolist() == list(range(start, start + tail_terms(r)))
        floats = rule(xs).tolist()
        got, n = quadratic_loop(floats, r)
        assert ts == got
        assert ts.value == math.fsum(floats[:n])
        assert ts.bound <= TAIL_REL_TOL * ts.value


SLOW_RATIO = """
import math
import numpy as np
from iglab.series import geometric_tail
ts = geometric_tail(lambda x: 0.9999 ** x, 0, 0.9999)
floats = (0.9999 ** np.arange(200000.0)).tolist()
assert ts.value == math.fsum(floats)
assert ts.bound == floats[-1] * 0.9999 / (1.0 - 0.9999)
"""


def test_geometric_tail_is_linear_in_the_term_count():
    # ratio 0.9999 runs all 200,000 terms; an fsum over the term list
    # after every term would take hours. Run in a child so a regression
    # fails, not hangs.
    src = os.path.dirname(os.path.dirname(iglab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SLOW_RATIO],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
