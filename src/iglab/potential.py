"""Equilibrium potentials, boundary capacities, and Minkowski codimension.

Capacity of a vertex set U with respect to the form norm:

    Cap(U) = inf { ||u||_Q : u feasible, u >= 1 on U },
    ||u||_Q^2 = Q(u) + ||u||^2.

On a finite graph the infimum is attained by the equilibrium potential e,
the solution of (Delta + 1) e = 0 off U with e = 1 on U; then 0 <= e <= 1
and Cap(U) = ||e||_Q. The free-vertex system is symmetric positive
definite and sparse.

For the ideal boundary of a ray (or line) family, Cap(boundary) is the
limit of Cap(tail_N) over the neighborhood basis of tails. On a linear end
no system is solved: e is 1 on the tail, which adds only its measure, and
the free vertices form a ladder of series conductances w with shunts mu to
ground (Doyle and Snell, Random Walks and Electric Networks, 1984). With
the free vertices 0..N-1 counted from the far end of the chain,

    G_0 = mu(0) + c,   G_x = mu(x) + 1/(1/w(x-1) + 1/G_(x-1)),
    cond(N) = 1/(1/w(N-1) + 1/G_(N-1)) = Q(e) + sum_{x<N} e(x)^2 mu(x),

and one sweep gives cond(N) for every N along it. Each step adds or
inverts positive numbers, so there is no cancellation: the relative error
grows by a few ulps per step. On a ray the free vertices of tail_N are
0..N-1 from the root and c = 0, so Cap(tail_N)^2 = cond(N) + mu_tail(N)
exactly. On a line they run from the other end's vertex at a depth D in
through the root, and one sweep brackets every tail:

    cond_D(N) + mu_tail(N) <= Cap(tail_N)^2 <= cond'_D(N) + mu_tail(N) + t.

The lower bound (c = 0) restricts the true potential to the window. Above,
if the other end has finite measure, cond' = cond and t is its mu_tail(D
+ 1): extend the window's potential by its outer value, at most 1. If it
has infinite measure, t = 0 and cond' is the sweep with c = inf, which
holds the other end at e = 0 from vertex D out, a feasible potential.
A realization's leak (the weight of the first edge cut) is not a term of
the window's form, only bookkeeping for form_report's bounds: the cut end
of a window is a free vertex, and the sweep starts there with its measure.

An explicit admissible ramp (0 below N/2, linear up to 1 at N) gives a
certified upper bound at any N (_ramp_upper). Its energy needs the sum of
w over [N/2, N): the end's declared closed form (End.w_sum_fn) where it
has one, else one array sum of the rule. The dyadic ramp grid
stops at the first bound that is 0 (tails are nested, so Cap(tail_N)
cannot grow again) or inf (the rules left float range). Smallness claims
(polar) run on certified upper bounds, positivity claims on the plateau
of the ladder values. Each end's sweep, ramp grid and regime come from
one function of that end (_end_capacity), run once per distinct End
(LinearFamily.per_end), so a line built from one End twice does that work
once. All but the ramp grid read the rules from the family's chain
(LinearFamily.chain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .completeness import boundary_end
from .errors import InputError, NumericalError
from .forms import VertexFunction, energy, norm_sq
from .graphs import GraphFamily, WeightedGraph, vertex_mask
from .series import last_quartile, loglog_slope

POLAR_THRESHOLD = 1e-3
POLAR_SLOPE = -0.2
PLATEAU_CHANGE = 1e-4
POSITIVE_FLOOR = 1e-2
# boundary_capacity's sweep on a line runs in from the depth of the largest
# window in float range up to this multiple of the largest solver tail
OUTER_PER_TAIL = 16
# codim_polarity_test puts its cutoffs at the scales r_n / 2 for these n
CUTOFF_SCALES = range(2, 31)


@dataclass
class EquilibriumResult:
    e: VertexFunction
    cap: float
    cap_sq: float
    residual: float          # normalized sup-norm residual of the system
    U: tuple                 # the ids of U, sorted
    bounds_ok: bool          # 0 <= e <= 1 within 1e-10
    energy: float            # Q(e), the energy part of cap_sq


def equilibrium(g: WeightedGraph, U) -> EquilibriumResult:
    """Equilibrium potential of U: minimizes ||u||_Q^2 subject to u=1 on U.

    The free-vertex system is solved directly after symmetric diagonal
    equilibration; raises NumericalError if the row-normalized residual
    of the solution exceeds 1e-6 (it is ~1e-15 in practice). One matrix
    is built, the equilibrated one the solver factors; the residual
    A e - b is formed from the unscaled entries, each row's products
    added to 0.0 in stored order, as a CSR matrix-vector product does.
    """
    in_u = vertex_mask(g, U)
    if not in_u.any():
        raise InputError("U must be nonempty")
    free = np.flatnonzero(~in_u)
    values = np.ones(g.n)
    res = 0.0
    if free.size:
        n_free = free.size
        idx = -np.ones(g.n, dtype=int)
        idx[free] = np.arange(n_free)
        # CSR entries (x, y) of free rows: y in U feeds b (summed in
        # increasing y, as the rows are stored), y free is an entry -w of A
        from_free = ~in_u[g.rows]
        to_u = from_free & in_u[g.indices]
        inner = from_free & ~to_u
        b = np.bincount(idx[g.rows[to_u]], weights=g.w[to_u],
                        minlength=n_free)
        diag = g.row_sums[free] + g.mu[free]
        # A in canonical CSR order: rows in order, columns sorted
        r = np.concatenate((np.arange(n_free), idx[g.rows[inner]]))
        c = np.concatenate((np.arange(n_free), idx[g.indices[inner]]))
        order = np.argsort(r * n_free + c)
        r, c = r[order], c[order]
        a = np.concatenate((diag, -g.w[inner]))[order]
        # Symmetric diagonal equilibration: the scaled matrix has unit
        # diagonal and off-diagonal entries in (-1, 0], so weights spanning
        # hundreds of orders of magnitude cannot overflow the factorization.
        # Solve A~ y = b~ with A~ = D^-1/2 A D^-1/2, then e = D^-1/2 y.
        # The free system is a diagonally dominant M-matrix and the graphs
        # are chains or stars, so a direct sparse solve is stable and cheap;
        # iterative solvers stall here because their 2-norm stopping rule is
        # dominated by the boundary rows when weights span many decades.
        # A~ is formed entrywise as (d_i a_ij) d_j, without the entries
        # that round to 0, which is what the sparse products
        # diag(d) @ A @ diag(d) store; likewise d * b (b >= 0) and
        # d * y + 0.0 are the diagonal matrix-vector products.
        d = 1.0 / np.sqrt(diag)
        a_s = d[r] * a * d[c]
        keep = a_s != 0.0
        indptr = np.searchsorted(r[keep], np.arange(n_free + 1))
        ys = spla.spsolve(sp.csr_matrix((a_s[keep], c[keep], indptr),
                                        shape=(n_free, n_free)), d * b)
        sol = d * ys + 0.0
        # residual of each row's equation relative to its diagonal weight
        ax = np.bincount(r, weights=a * sol[c], minlength=n_free)
        res = float(np.max(np.abs(ax - b) / diag))
        if not np.all(np.isfinite(sol)) or res > 1e-6:
            raise NumericalError(
                f"equilibrium solve failed (row residual {res:.3e})")
        values[free] = sol
    e = VertexFunction(g, values)
    lo, hi = float(values.min()), float(values.max())
    bounds_ok = lo >= -1e-10 and hi <= 1.0 + 1e-10
    en = energy(e)
    cap_sq = en + norm_sq(e)
    return EquilibriumResult(e, math.sqrt(cap_sq), cap_sq, res,
                             tuple(np.flatnonzero(in_u).tolist()), bounds_ok,
                             en)


# -- boundary capacity -------------------------------------------------------

@dataclass
class CapacityEntry:
    tail_start: int
    solver_cap: float | None = None
    solver_cap_sq: float | None = None
    bracket_upper: float | None = None   # the sweep's upper bound on cap
    ramp_upper: float | None = None      # explicit admissible ramp

    @property
    def certified_upper(self) -> float:
        return min((v for v in (self.bracket_upper, self.ramp_upper)
                    if v is not None), default=math.inf)


def _json_number(v: float | None) -> float | None:
    """v for a JSON record, where inf and nan have no number: None."""
    return v if v is not None and math.isfinite(v) else None


@dataclass
class CapacitySequence:
    end_label: str
    regime: str                      # zero | positive-finite | infinite | inconclusive
    entries: list = field(default_factory=list)
    cummin_upper: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def solver_caps(self):
        return [(e.tail_start, e.solver_cap) for e in self.entries
                if e.solver_cap is not None]

    def to_dict(self):
        return {
            "end": self.end_label, "regime": self.regime,
            "entries": [
                {"tail": e.tail_start, "cap": e.solver_cap,
                 "cap_sq": e.solver_cap_sq,
                 "bracket_upper": e.bracket_upper,
                 "ramp_upper": _json_number(e.ramp_upper),
                 "certified_upper": _json_number(e.certified_upper)}
                for e in self.entries],
            "cummin_upper": self.cummin_upper,
            "diagnostics": {k: _json_number(v) if isinstance(v, float) else v
                            for k, v in self.diagnostics.items()},
        }


@dataclass
class CapacityReport:
    family: str
    per_end: list                    # CapacitySequence per end
    boundary_regime: str
    polarity: str                    # polar | non-polar | inconclusive
    thresholds: dict = field(default_factory=dict)

    def to_dict(self):
        return dict(vars(self), per_end=[s.to_dict() for s in self.per_end])


def _w_sum(end, a: int, b: int) -> float:
    """sum_{k=a}^{b-1} w(k): the end's w_sum_fn(a, b) where it gives one,
    else one np.add.reduce of w over [a, b). Callers set np.errstate."""
    total = end.w_sum_fn and end.w_sum_fn(a, b)
    if total is not None:
        return total
    return float(np.add.reduce(np.asarray(
        end.w_fn(np.arange(a, b, dtype=float)), dtype=float)))


def _ramp_upper(end, N: int) -> float:
    """||eta||_Q for the admissible ramp: 0 out to N/2, linear to 1 at N,
    constant 1 on the tail. A true upper bound for Cap(tail_N), N >= 4.

    The squared norm is energy + mass + mu_tail(N); the energy's w sum is
    the end's declared closed form or one array sum of w (_w_sum). Since
    eta vanishes up to N/2 and never exceeds 1, mass + mu_tail(N) <=
    mu_tail(N/2 + 1); when adding that bound to the energy leaves the
    energy unchanged in floating point, so does the full sum (rounding is
    monotone), and the measure rule is not evaluated."""
    a, b = N // 2, N
    inc = 1.0 / (b - a)
    with np.errstate(over="ignore", invalid="ignore"):
        en = _w_sum(end, a, b) * inc * inc
    bound = end.mu_tail(a + 1).upper
    if en + bound == en:
        return math.sqrt(en) if math.isfinite(en) else math.inf
    tail = end.mu_tail(b).upper
    ks = np.arange(a + 1, b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        prof = (ks - a) * inc
        mass = float(np.sum(np.asarray(end.mu_fn(ks), dtype=float)
                            * prof * prof))
    total = en + mass + tail
    if not math.isfinite(total):
        return math.inf
    return math.sqrt(total)


def _end_ladder(fam, end, depth: int, grounded: bool = False) -> list:
    """The sweep (module docstring) for the tails of `end` in the
    realization of depth `depth` of the ray or line `fam`: cond(N) for
    N = 1..depth, indexed N - 1, as Python floats. A line's chain runs
    from the other end's outermost vertex in to the root and out along
    `end`, that vertex held at 0 if `grounded` (c = inf); a ray's starts at
    the root. w and mu are the realization's, in id order (reversed for a
    line's minus end)."""
    w, mu = fam._window_arrays(depth - 1 + fam.smallest_window)
    if end is not fam.ends()[-1]:
        w, mu = w[::-1], mu[::-1]
    conds, cond = [], math.inf if grounded else 0.0
    for wx, mx in zip(w.tolist(), mu.tolist()):
        cond = 1.0 / (1.0 / wx + 1.0 / (mx + cond))  # G_x = mx + cond(x)
        conds.append(cond)
    return conds[-depth:]


def _end_capacity(fam, end, maxwin: int, solver_tail_max: int,
                  analytic_tail_max: int) -> tuple:
    """One end's (regime, entries, cummin_upper, diagnostics) for
    boundary_capacity, whose docstring gives the rules; maxwin is its
    float-range probe."""
    if end.mu_is_infinite():
        return "infinite", [], [], {
            "basis": "infinite measure: constants are not integrable, "
                     "every tail has infinite capacity"}
    ends = fam.ends()
    entries = []
    tails = [1 << p for p in
             range(2, min(solver_tail_max, maxwin // 4).bit_length())]
    if tails:
        # one sweep: exact on a ray, and on a line bracketed through the
        # other end (module docstring)
        other = [e for e in ends if e is not end]
        depth = fam._depth(maxwin) if other else tails[-1]
        conds = uppers = _end_ladder(fam, end, depth)
        beyond = 0.0
        if other and other[0].mu_is_infinite():
            uppers = _end_ladder(fam, end, depth, True)
        elif other:
            beyond = other[0].mu_tail(depth + 1).upper
    for n in tails:
        tail = end.mu_tail(n)
        cap_sq = conds[n - 1] + tail.value
        upper_sq = uppers[n - 1] + tail.upper + beyond
        entries.append(CapacityEntry(n, math.sqrt(cap_sq), cap_sq,
                                     math.sqrt(upper_sq), _ramp_upper(end, n)))
    diag = {}
    n_tail = 4 << len(tails)
    while n_tail <= analytic_tail_max:
        ramp = _ramp_upper(end, n_tail)
        entries.append(CapacityEntry(n_tail, ramp_upper=ramp))
        if ramp in (0.0, math.inf):
            why = ("is 0, and Cap(tail_N) does not increase with N"
                   if ramp == 0.0 else
                   "is inf, the rules overflow float range")
            diag["analytic_stopped"] = (f"analytic grid stopped at tail "
                                        f"{n_tail}: ramp bound {why}")
            break
        n_tail *= 2

    cummin = list(np.minimum.accumulate([e.certified_upper for e in entries]))
    lower = None
    if end.res_upper is not None and math.isfinite(end.res_upper):
        # Cap(tail_N) >= (1/mu(1) + sum_{k>=1} 1/w(k))^(-1/2) for every
        # N >= 1: for admissible u, 1 <= u(N) <= |u(1)| + sum |du| and
        # Cauchy-Schwarz against the norm. Uniform in N, so it bounds
        # the boundary capacity from below.
        mu1 = float(fam.chain(1)[ends.index(end)].mu[1])
        lower = (1.0 / mu1 + end.res_upper) ** -0.5
        diag["resistance_lower"] = lower
    regime = "inconclusive" if lower is None else "positive-finite"
    if cummin:
        finite = [(n, v) for n, v in zip((e.tail_start for e in entries),
                                         cummin) if math.isfinite(v)]
        fired = [n for n, v in finite if v < POLAR_THRESHOLD]
        slope = loglog_slope([n for n, _ in finite[-4:]],
                             [v for _, v in finite[-4:]])
        zero_hit = any(v == 0.0 for _, v in finite)
        diag["upper_below_threshold_at"] = fired[0] if fired else None
        # the fit skips a 0 bound, so past one it spans the underflow
        diag["upper_loglog_slope"] = None if zero_hit else slope
        caps = [e.solver_cap for e in entries if e.solver_cap is not None]
        if caps:
            tailvals = caps[last_quartile(len(caps))]
            rel = max(abs(b - a) / max(abs(b), 1e-300)
                      for a, b in zip(tailvals, tailvals[1:])) \
                if len(tailvals) > 1 else math.inf
            diag["solver_last_quartile_change"] = rel
            diag["solver_last"] = caps[-1]
        zero_evidence = bool(fired) and (
            zero_hit or (not math.isnan(slope) and slope < POLAR_SLOPE))
        if lower is not None:
            # with no finite upper bound the resistance bound stands alone
            if zero_evidence or min((v for _, v in finite), default=math.inf) \
                    < lower * (1 - 1e-9):
                raise NumericalError(
                    f"end {end.label}: certified upper bounds fall below "
                    f"the certified resistance lower bound {lower:.3e}")
        elif zero_evidence:
            regime = "zero"
        elif caps and diag.get("solver_last_quartile_change", math.inf) \
                < PLATEAU_CHANGE and caps[-1] > POSITIVE_FLOOR:
            regime = "positive-finite"
    return regime, entries, cummin, diag


def boundary_capacity(fam: GraphFamily, solver_tail_max: int = 256,
                      analytic_tail_max: int = 1 << 22) -> CapacityReport:
    """Tail-capacity sequences for every end, with regime verdicts.

    Per end, ladder values (module docstring) on the tails N = 4, 8, ...
    up to solver_tail_max and a quarter of the largest window in float
    range; no graph is built. Each end's entries come from one sweep. A
    ray's are the infinite ray's values, bracketed above by the certified
    mu_tail(N). A line's sweep runs in from depth D of the largest window
    in float range up to OUTER_PER_TAIL * solver_tail_max; its values are
    lower bounds, bracketed above through the other end's measure.
    Analytic ramp bounds extend the tail grid beyond any window; the ramp
    grid stops after the first bound that is 0 (final: Cap(tail_N) does
    not increase with N) or inf (the rules overflow float range), and
    diagnostics["analytic_stopped"] names the tail and the reason, and
    diagnostics["upper_loglog_slope"] is then None where that bound is 0.
    Each end is computed once per distinct End (LinearFamily.per_end).
    Regime rules:

      infinite:        the end has infinite measure (no sweep needed)
      positive-finite: the end carries a finite tail-resistance bound, so
                       Cap >= (1/mu(1) + sum 1/w)^(-1/2) > 0 certified;
                       or, as weaker evidence, the ladder caps plateau
                       (last-quartile relative change < 1e-4) above 0.01
      zero:            running-min certified upper bound drops below 1e-3
                       with log-log slope < -0.2 over the last 4 entries
                       (or hitting exact zero by underflow)

    Contradictory certificates (an upper bound under the resistance lower
    bound) raise NumericalError. A solver_tail_max below 1 raises
    InputError before any end is read.
    """
    if solver_tail_max < 1:
        raise InputError(f"solver_tail_max must be at least 1, "
                         f"not {solver_tail_max}")
    ends = fam.ends()
    if not ends:
        raise InputError(f"{fam.describe()}: no ends, no boundary capacity")
    # one float-range probe serves every end of finite measure
    maxwin = (fam.max_window(OUTER_PER_TAIL * solver_tail_max)
              if any(not end.mu_is_infinite() for end in ends) else None)
    sequences = [CapacitySequence(end.label, *seq) for end, seq in zip(
        ends, fam.per_end(lambda end: _end_capacity(
            fam, end, maxwin, solver_tail_max, analytic_tail_max)))]

    regimes = {s.regime for s in sequences}
    if "positive-finite" in regimes:
        boundary = "infinite" if "infinite" in regimes else "positive-finite"
        polarity = "non-polar"
    elif "infinite" in regimes:
        boundary = "infinite"
        polarity = "non-polar" if regimes <= {"infinite", "zero"} else \
            "inconclusive"
    elif regimes == {"zero"}:
        boundary, polarity = "zero", "polar"
    else:
        boundary, polarity = "inconclusive", "inconclusive"
    return CapacityReport(
        fam.describe(), sequences, boundary, polarity,
        thresholds={"polar_threshold": POLAR_THRESHOLD,
                    "polar_slope": POLAR_SLOPE,
                    "plateau_change": PLATEAU_CHANGE,
                    "positive_floor": POSITIVE_FLOOR})


# -- Minkowski codimension ---------------------------------------------------

@dataclass
class CodimEstimate:
    xs: np.ndarray
    r: np.ndarray
    mu_ball: np.ndarray
    ratios: np.ndarray          # ln mu(B_r) / ln r where r < 1
    local_slopes: np.ndarray    # two-point slopes between samples
    fit_slope: float
    codim: float                # limsup proxy: max ratio, deepest quartile
    codim_local: float          # median local slope, deepest quartile
    exact: bool
    closed_form: float | None = None

    def to_dict(self):
        return {"x": self.xs.tolist(), "r": self.r.tolist(),
                "mu_ball": self.mu_ball.tolist(),
                "ratios": [_json_number(v) for v in self.ratios.tolist()],
                "local_slopes": self.local_slopes.tolist(),
                "fit_slope": self.fit_slope,
                "codim": _json_number(self.codim),
                "codim_local": self.codim_local, "exact": self.exact,
                "closed_form": self.closed_form}


def minkowski_samples(fam: GraphFamily, depth: int = 40) -> CodimEstimate:
    """Samples (r(x), mu(B_r(x))) along the single boundary end.

    B_r(boundary) for r = r(x) is exactly the tail from x (boundary
    distances decrease outward), so mu(B_r) = mu_tail(x). Three codimension
    estimators are reported: pointwise ratios ln mu / ln r (the definition;
    a limsup proxy takes their max over the deepest quartile), two-point
    local slopes, and a least-squares log-log fit. Sampling stops before
    the first x where either tail underflows to 0 (its log is -inf), as
    the ramp grid stops at a 0 bound; fewer than 2 samples raise InputError.
    """
    if depth < 2:
        raise InputError(f"codimension sampling needs depth >= 2, got {depth}")
    end = boundary_end(fam, "codimension sampling")
    if end.mu_is_infinite():
        raise InputError("measure of the space is infinite; mu(B_r) diverges")
    tails = []
    for x in range(1, depth + 1):
        ts, tm = end.sigma_tail(x), end.mu_tail(x)
        if not (ts.value > 0.0 and tm.value > 0.0):
            break
        tails.append((ts, tm))
    if len(tails) < 2:
        raise InputError("codimension sampling: fewer than 2 samples before "
                         f"the tails underflow to 0 at x = {len(tails) + 1}")
    xs = np.arange(1, len(tails) + 1)
    r = np.array([ts.value for ts, _ in tails])
    mb = np.array([tm.value for _, tm in tails])
    exact = all(ts.exact and tm.exact for ts, tm in tails)
    lr = np.log(r)
    lm = np.log(mb)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lr < -1e-9, lm / lr, np.nan)
    local = np.diff(lm) / np.diff(lr)
    fit = float(np.polyfit(lr, lm, 1)[0])
    q = last_quartile(len(xs))
    deep_ratios = ratios[q]
    deep_ratios = deep_ratios[~np.isnan(deep_ratios)]
    codim = float(np.max(deep_ratios)) if deep_ratios.size else math.nan
    lq = last_quartile(len(local))
    codim_local = float(np.median(local[lq]))
    return CodimEstimate(xs, r, mb, ratios, local, fit,
                         codim, codim_local, exact,
                         fam.codim_closed_form)


# -- cutoff polarity test ----------------------------------------------------

@dataclass
class PolarityTestEntry:
    n: int
    r_n: float
    value: float            # ||eta||_Q of the cutoff at scale r_n / 2
    bound: float            # sqrt(mu(B_rn) + 4 mu(B_rn) / r_n^2)
    within_bound: bool


@dataclass
class PolarityTestResult:
    family: str
    entries: list
    decreasing: bool
    final_value: float
    fires: bool             # some value < 1e-3 (capacity upper bound)


def codim_polarity_test(fam: GraphFamily) -> PolarityTestResult:
    """Cutoffs eta at scales r_n/2, n in CUTOFF_SCALES, witness
    Cap(boundary) = 0 when the boundary has Minkowski codimension > 2.

    eta(x) = ((2R - d(x, boundary)) / R)_+ ^ 1 with R = r_n / 2: equal to 1
    where d <= r_n/2, zero where d >= r_n. Each ||eta||_Q is an upper bound
    for the capacity of a boundary neighborhood and is checked against the
    bound sqrt(mu(B_{r_n}) + 4 mu(B_{r_n}) / r_n^2).
    """
    end = boundary_end(fam, "polarity test")
    if len(fam.ends()) != 1:
        raise InputError(f"{fam.describe()}: the cutoff test needs a ray")
    cuts = []
    for n in CUTOFF_SCALES:
        r_n = end.sigma_tail(n).value
        R = r_n / 2.0
        # support of the ramp: vertices x with r(x) < r_n, i.e. x > n;
        # eta reaches 1 once r(x) <= R. Find that index by scanning.
        x1 = n + 1
        while end.sigma_tail(x1).value > R:
            x1 += 1
            if x1 > n + 10000:
                raise NumericalError("cutoff never saturates; tails too flat")
        cuts.append((n, r_n, fam._checked(x1 + 2)))
    # each window's rule arrays are a prefix of the deepest window's
    top = max(window for _, _, window in cuts)
    w, mu = fam._window_arrays(top)
    rv = np.array([end.sigma_tail(k).value for k in range(top)])
    entries = []
    for n, r_n, window in cuts:
        R = r_n / 2.0
        eta = np.clip((2 * R - rv[:window]) / R, 0.0, 1.0)
        # energy() and norm_sq() of eta on truncate(window), from its rules
        en = math.fsum((w[:window - 1] * np.square(np.diff(eta))).tolist())
        mass_window = math.fsum((np.square(eta) * mu[:window]).tolist())
        mass_tail = end.mu_tail(window).upper
        value = math.sqrt(en + mass_window + mass_tail)
        mb = end.mu_tail(n).upper
        bound = math.sqrt(mb + 4.0 * mb / (r_n * r_n))
        entries.append(PolarityTestEntry(
            n, r_n, value, bound,
            value <= bound + 1e-10 * max(1.0, bound)))
    vals = [e.value for e in entries]
    decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    return PolarityTestResult(fam.describe(), entries, decreasing,
                              vals[-1], min(vals) < POLAR_THRESHOLD)


# -- boundary alternative ----------------------------------------------------

@dataclass
class BoundaryAlternative:
    verdict: str
    basis: str

    def to_dict(self):
        return vars(self)


def boundary_alternative_evidence(report: CapacityReport) -> BoundaryAlternative:
    """If the form with and without boundary condition were equal, every
    boundary set would have capacity 0 or infinity; a tail capacity
    strictly in between therefore separates the forms."""
    regimes = [s.regime for s in report.per_end]
    if "positive-finite" in regimes:
        return BoundaryAlternative(
            "forms differ: D(Q) != D(Q^max)",
            "a boundary tail has capacity strictly between 0 and infinity")
    if "inconclusive" in regimes:
        return BoundaryAlternative(
            "inconclusive", "some end has no resolved capacity regime")
    return BoundaryAlternative(
        "no separation from capacities",
        "every sampled tail capacity sits at 0 or infinity")
