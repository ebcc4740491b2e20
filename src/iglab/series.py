"""Certified tail sums and small trend/plateau decision helpers.

Infinite families enter every computation through sums over a ray tail:
total edge length, measure of a tail set, ramp energies. Where a closed
form exists we use it; otherwise we sum a partial stretch and attach a
rigorous remainder bound (geometric ratio or a declared bound function).
The TailSum record keeps value and error bound together so downstream
verdicts can stay honest about what is exact and what is bracketed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TINY = np.finfo(float).tiny     # the smallest normal float


@dataclass(frozen=True)
class TailSum:
    """A sum over an infinite tail: |true - value| <= bound."""

    value: float
    bound: float = 0.0
    exact: bool = True

    @property
    def upper(self) -> float:
        return self.value + self.bound

    @property
    def lower(self) -> float:
        return max(self.value - self.bound, 0.0)


def geometric_tail(term_fn, start: int, ratio_bound: float,
                   rel_tol: float = 1e-13, max_terms: int = 200000) -> TailSum:
    """Sum term_fn(start) + term_fn(start+1) + ... given a uniform ratio bound.

    ratio_bound must satisfy term(x+1) <= ratio_bound * term(x) for all
    x >= start with 0 < ratio_bound < 1; the remainder after the partial
    sum is then bounded by last_term * r / (1 - r). The sum stops at a
    zero term, at the first remainder <= rel_tol * fsum(terms so far), or
    after max_terms terms. The plain running sum of n nonnegative terms is
    within n 2^-53 of the exact one, so fsum runs only where the remainder
    is at most twice rel_tol times it, or where that product is subnormal
    and loses the relative bound: elsewhere the fsum test cannot pass.
    """
    if not 0.0 < ratio_bound < 1.0:
        raise ValueError("ratio_bound must lie in (0, 1)")
    terms = []
    running = 0.0
    x = start
    while True:
        t = float(term_fn(x))
        if t < 0:
            raise ValueError("geometric_tail expects nonnegative terms")
        terms.append(t)
        running += t
        remainder = t * ratio_bound / (1.0 - ratio_bound)
        scale = rel_tol * running
        if t == 0.0 or remainder <= 2.0 * scale or scale < TINY:
            partial = math.fsum(terms)
            if remainder <= rel_tol * partial or t == 0.0:
                return TailSum(partial, remainder, exact=False)
        x += 1
        if x - start >= max_terms:
            return TailSum(math.fsum(terms), remainder, exact=False)


def bounded_tail(term_fn, start: int, remainder_fn,
                 depth: int = 2000) -> TailSum:
    """Partial sum to start+depth with a declared remainder bound beyond."""
    xs = range(start, start + depth)
    partial = math.fsum(float(term_fn(x)) for x in xs)
    rem = float(remainder_fn(start + depth))
    return TailSum(partial, rem, exact=False)


def last_quartile(n: int) -> slice:
    """Index slice of the last quarter (at least two entries) of n samples."""
    k = max(2, n // 4)
    return slice(n - k, n)


def plateau(values, rel: float = 1e-6) -> bool:
    """True if the last quartile of the sequence moves by < rel relatively."""
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        return False
    tail = v[last_quartile(v.size)]
    scale = max(abs(tail[-1]), 1e-300)
    return bool(np.max(np.abs(np.diff(tail))) < rel * scale)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs (positive entries only)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    keep = (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if x.size < 2:
        return math.nan
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str            # "converged" | "diverged" | "inconclusive"
    partial: float          # last partial sum

    def __bool__(self) -> bool:  # truthy iff converged
        return self.verdict == "converged"


def series_verdict(terms) -> SeriesVerdict:
    """Convergence evidence for sum(terms) from finitely many terms.

    Converged if the partial sums plateau (last-quartile relative change
    < 1e-6) or the terms decay like x^s with s < -1.1; diverged if s > -0.9.
    The band [-1.1, -0.9] around the p-series boundary stays inconclusive.
    """
    t = np.asarray(terms, dtype=float)
    partials = np.cumsum(t)
    xs = np.arange(1, t.size + 1)
    q = last_quartile(t.size)
    slope = loglog_slope(xs[q], np.abs(t[q]) + 0.0)
    if plateau(partials) or (not math.isnan(slope) and slope < -1.1):
        v = "converged"
    elif not math.isnan(slope) and slope > -0.9:
        v = "diverged"
    elif math.isnan(slope) and np.all(t[q] == 0.0):
        v = "converged"  # terms identically zero in the tail
    else:
        v = "inconclusive"
    return SeriesVerdict(v, float(partials[-1]))
