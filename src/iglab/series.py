"""Certified tail sums and small trend/plateau decision helpers.

Infinite families enter every computation through sums over a ray tail:
total edge length, measure of a tail set, ramp energies. Where a closed
form exists we use it; otherwise we sum a partial stretch and attach a
rigorous remainder bound (geometric ratio or a declared bound function).
The TailSum record keeps value and error bound together so downstream
verdicts can stay honest about what is exact and what is bracketed.

The summing helpers call their term rule on float arrays of indices, as
the End rules are called, never one index at a time: bounded_tail makes
one call of TAIL_DEPTH terms, geometric_tail one call of as many terms
as its ratio bound needs to reach TAIL_REL_TOL. A term that is
NaN or negative, or a rule that does not return one float per index,
raises FamilyDefinitionError. Their TailSums round outward, so upper and
lower enclose the exact sum of the floats summed plus the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FamilyDefinitionError

TINY = np.finfo(float).tiny     # the smallest normal float
TAIL_REL_TOL = 1e-13            # geometric_tail's relative remainder target
TAIL_MAX_TERMS = 200000         # geometric_tail's term cap
TAIL_DEPTH = 2000               # terms bounded_tail sums before its bound
PLATEAU_REL = 1e-6              # plateau's last-quartile relative change


@dataclass(frozen=True)
class TailSum:
    """A sum over an infinite tail: |true - value| <= bound.

    An exact TailSum is a closed form: upper and lower are value +- bound
    rounded to nearest. Otherwise value is the correctly rounded sum of
    the floats summed and bound their remainder, and upper and lower round
    outward (one ulp for value, one for the addition), so that
    lower <= max(S - bound, 0) and S + bound <= upper for the exact sum S
    of those floats.
    """

    value: float
    bound: float = 0.0
    exact: bool = True

    @property
    def upper(self) -> float:
        if self.exact:
            return self.value + self.bound
        up = math.nextafter(self.value, math.inf) + self.bound
        return math.nextafter(up, math.inf)

    @property
    def lower(self) -> float:
        if self.exact:
            return max(self.value - self.bound, 0.0)
        down = math.nextafter(self.value, -math.inf) - self.bound
        return max(math.nextafter(down, -math.inf), 0.0)


def _terms(term_fn, start: int, n: int) -> np.ndarray:
    """term_fn over the indices start .. start + n - 1, in one array call."""
    xs = np.arange(start, start + n, dtype=float)
    terms = np.asarray(term_fn(xs), dtype=float)
    if terms.shape != xs.shape:
        raise FamilyDefinitionError(
            f"tail term rule returned shape {terms.shape} for {n} indices: "
            "it must return one float per index")
    return terms


def _bad_term(terms: np.ndarray, start: int):
    """FamilyDefinitionError for the first NaN or negative term."""
    i = int(np.flatnonzero(~(terms >= 0.0))[0])
    return FamilyDefinitionError(
        f"tail term rule gave {terms[i]} at index {start + i}: "
        "terms must be nonnegative")


def geometric_tail(term_fn, start: int, ratio_bound: float) -> TailSum:
    """Sum term_fn(start) + term_fn(start+1) + ... given a uniform ratio bound.

    ratio_bound r must satisfy term(x+1) <= r term(x) for all x >= start
    with 0 < r < 1; the remainder after the partial sum is then bounded by
    last_term * r / (1 - r). term_fn is called once, on the
    n = ceil(log((1 - r) TAIL_REL_TOL / 2) / log r) + 1 indices (at most
    TAIL_MAX_TERMS) by whose last that bound is under TAIL_REL_TOL / 2
    times the first term. The sum stops at a zero term, at the first
    remainder <= TAIL_REL_TOL * fsum(terms so far), or at the last index;
    floats past the stop are not read. The plain running sum of n
    nonnegative terms is within n 2^-53 of the exact one, so fsum runs
    only where the remainder is at most twice TAIL_REL_TOL times it, or
    where that product is subnormal and loses the relative bound.
    """
    if not 0.0 < ratio_bound < 1.0:
        raise ValueError("ratio_bound must lie in (0, 1)")
    r = ratio_bound
    n = min(math.ceil(math.log((1.0 - r) * TAIL_REL_TOL / 2) / math.log(r))
            + 1, TAIL_MAX_TERMS)
    with np.errstate(all="ignore"):
        terms = _terms(term_fn, start, n)
        remainder = terms * r / (1.0 - r)
        scale = TAIL_REL_TOL * terms.cumsum()
        ok = terms >= 0.0                   # False at NaN or negative
        good = n if ok.all() else int(ok.argmin())
        # a zero term has remainder 0, so it passes the first test
        candidates = ((remainder[:good] <= 2 * scale[:good])
                      | (scale[:good] < TINY)).nonzero()[0]
    for i in candidates.tolist():
        partial = math.fsum(terms[:i + 1].tolist())
        if remainder[i] <= TAIL_REL_TOL * partial or terms[i] == 0.0:
            return TailSum(partial, float(remainder[i]), exact=False)
    if good < n:
        raise _bad_term(terms, start)
    return TailSum(math.fsum(terms.tolist()), float(remainder[-1]),
                   exact=False)


def bounded_tail(term_fn, start: int, remainder_fn) -> TailSum:
    """Sum term_fn over start .. start + TAIL_DEPTH - 1, from one array call,
    plus the declared bound remainder_fn(start + TAIL_DEPTH) on the rest.
    The TailSum's upper and lower round outward (see TailSum)."""
    with np.errstate(all="ignore"):
        terms = _terms(term_fn, start, TAIL_DEPTH)
    if not (terms >= 0.0).all():
        raise _bad_term(terms, start)
    rem = float(remainder_fn(start + TAIL_DEPTH))
    return TailSum(math.fsum(terms.tolist()), rem, exact=False)


def prefix_fsums(values) -> list:
    """[math.fsum(values[:k + 1]) for each k] of finite floats, in one pass:
    each float is an integer over a power of two, so over the largest of
    those the running sum is an exact integer, and int true division
    rounds it correctly, as fsum does."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max([d for _, d in ratios], default=1).bit_length()
    acc, den, out = 0, 1 << (shift - 1), []
    for n, d in ratios:
        acc += n << (shift - d.bit_length())
        out.append(acc / den)
    return out


def last_quartile(n: int) -> slice:
    """Index slice of the last quarter (at least two entries) of n samples."""
    k = max(2, n // 4)
    return slice(n - k, n)


def plateau(values) -> bool:
    """True if the last quartile moves by < PLATEAU_REL relatively."""
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        return False
    tail = v[last_quartile(v.size)]
    scale = max(abs(tail[-1]), 1e-300)
    return bool(np.max(np.abs(np.diff(tail))) < PLATEAU_REL * scale)


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
