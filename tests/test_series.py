import math
import os
import subprocess
import sys

import pytest

import iglab
from iglab.gallery import build_family
from iglab.series import TailSum, geometric_tail


def quadratic_geometric_tail(term_fn, start, ratio_bound, rel_tol=1e-13,
                             max_terms=200000):
    """geometric_tail as it was written before: math.fsum over the whole
    term list after every new term."""
    terms = []
    x = start
    while True:
        t = float(term_fn(x))
        terms.append(t)
        remainder = t * ratio_bound / (1.0 - ratio_bound)
        partial = math.fsum(terms)
        if remainder <= rel_tol * partial or t == 0.0:
            return TailSum(partial, remainder, exact=False)
        x += 1
        if x - start >= max_terms:
            return TailSum(partial, remainder, exact=False)


@pytest.mark.parametrize("term_fn, ratio", [
    (lambda x: 0.995 ** x, 0.995),
    (lambda x: 0.995 ** x / (1.0 + x), 0.995),
    (lambda x: 0.5 ** x, 0.5),
    (lambda x: 1e-300 * 0.5 ** x, 0.5),      # sums below the normal range
    (lambda x: 0.5 ** x if x < 7 else 0.0, 0.5),
], ids=["slow", "slow-mixed", "half", "subnormal", "finite"])
def test_geometric_tail_matches_the_quadratic_loop(term_fn, ratio):
    for start in (0, 50):
        assert geometric_tail(term_fn, start, ratio) == \
            quadratic_geometric_tail(term_fn, start, ratio)


def test_ex51_tails_match_the_quadratic_loop():
    # ex5.1's two series are geometric tails with ratios 2^-1/2 and 1/2
    for end in build_family("ex5.1").ends():
        for k in range(0, 60, 3):
            assert end.sigma_tail(k) == quadratic_geometric_tail(
                end.sigma_fn, k, 2.0 ** -0.5)
            assert end.mu_tail(k) == quadratic_geometric_tail(
                end.mu_fn, k, 0.5)


SLOW_RATIO = """
import math
from iglab.series import geometric_tail
ts = geometric_tail(lambda x: 0.9999 ** x, 0, 0.9999)
t = 0.9999 ** 199999
assert ts.value == math.fsum(0.9999 ** x for x in range(200000))
assert ts.bound == t * 0.9999 / (1.0 - 0.9999)
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
