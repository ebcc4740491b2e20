"""Equilibrium potentials, boundary capacities, and Minkowski codimension.

Capacity of a vertex set U with respect to the form norm:

    Cap(U) = inf { ||u||_Q : u feasible, u >= 1 on U },
    ||u||_Q^2 = Q(u) + ||u||^2.

On a finite graph the infimum is attained by the equilibrium potential e,
the solution of (Delta + 1) e = 0 off U with e = 1 on U; then 0 <= e <= 1
and Cap(U) = ||e||_Q. The free-vertex system is symmetric positive
definite and sparse.

For the ideal boundary of a ray (or line) family, Cap(boundary) is the
limit of Cap(tail_N) over the neighborhood basis of tails. Truncating to
a window M brackets the true value:

    Cap_M(tail)^2 <= Cap(tail)^2 <= Cap_M(tail)^2 + mu_tail(M),

and an explicit admissible ramp (0 below N/2, linear up to 1 at N) gives
a certified upper bound at any N without building a graph. Verdicts use
whichever side of the bracket can carry them: smallness claims (polar)
run on certified upper bounds, positivity claims on the solver plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .completeness import BoundaryModel, boundary_model
from .errors import InputError, NumericalError
from .forms import VertexFunction, energy, norm_sq, qnorm
from .graphs import GraphFamily, WeightedGraph, vertex_set
from .series import last_quartile, loglog_slope

RESIDUAL_TOL = 1e-9
POLAR_THRESHOLD = 1e-3
POLAR_SLOPE = -0.2
PLATEAU_CHANGE = 1e-4
POSITIVE_FLOOR = 1e-2


@dataclass
class EquilibriumResult:
    e: VertexFunction
    cap: float
    cap_sq: float
    residual: float          # normalized sup-norm residual of the system
    U: tuple
    iterations: int
    bounds_ok: bool          # 0 <= e <= 1 within 1e-10

    def to_dict(self):
        return dict(cap=self.cap, cap_sq=self.cap_sq, residual=self.residual,
                    iterations=self.iterations, bounds_ok=self.bounds_ok)


def equilibrium(g: WeightedGraph, U) -> EquilibriumResult:
    """Equilibrium potential of U: minimizes ||u||_Q^2 subject to u=1 on U.

    The free-vertex system is solved directly after symmetric diagonal
    equilibration; raises NumericalError if the row-normalized residual
    of the solution exceeds 1e-6 (it is ~1e-15 in practice).
    """
    U = vertex_set(g, U)
    if not U:
        raise InputError("U must be nonempty")
    in_u = np.zeros(g.n, dtype=bool)
    in_u[list(U)] = True
    free = np.flatnonzero(~in_u)
    values = np.ones(g.n)
    iters = 0
    if free.size:
        idx = -np.ones(g.n, dtype=int)
        idx[free] = np.arange(free.size)
        rows, cols, vals = [], [], []
        b = np.zeros(free.size)
        for i, x in enumerate(free):
            rows.append(i)
            cols.append(i)
            vals.append(g.row_sum(x) + float(g.mu[x]))
            for y, w in g.adj[x].items():
                if in_u[y]:
                    b[i] += w
                else:
                    rows.append(i)
                    cols.append(idx[y])
                    vals.append(-w)
        A = sp.csr_matrix((vals, (rows, cols)),
                          shape=(free.size, free.size))
        # Symmetric diagonal equilibration: the scaled matrix has unit
        # diagonal and off-diagonal entries in (-1, 0], so weights spanning
        # hundreds of orders of magnitude cannot overflow the factorization.
        # Solve A~ y = b~ with A~ = D^-1/2 A D^-1/2, then e = D^-1/2 y.
        # The free system is a diagonally dominant M-matrix and the graphs
        # are chains or stars, so a direct sparse solve is stable and cheap;
        # iterative solvers stall here because their 2-norm stopping rule is
        # dominated by the boundary rows when weights span many decades.
        diag = A.diagonal()
        dis = sp.diags(1.0 / np.sqrt(diag))
        As = (dis @ A @ dis).tocsr()
        bs = dis @ b
        ys = spla.spsolve(As, bs)
        iters = 1
        sol = dis @ ys
        # residual of each row's equation relative to its diagonal weight
        res = float(np.max(np.abs(A @ sol - b) / diag)) if b.size else 0.0
        if not np.all(np.isfinite(sol)) or res > 1e-6:
            raise NumericalError(
                f"equilibrium solve failed (row residual {res:.3e})")
        values[free] = sol
    else:
        res = 0.0
    e = VertexFunction(g, values)
    lo, hi = float(values.min()), float(values.max())
    bounds_ok = lo >= -1e-10 and hi <= 1.0 + 1e-10
    en = energy(e)
    n2 = norm_sq(e)
    return EquilibriumResult(e, math.sqrt(en + n2), en + n2, res, U, iters,
                             bounds_ok)


# -- boundary capacity -------------------------------------------------------

@dataclass
class CapacityEntry:
    tail_start: int
    solver_cap: float | None = None
    solver_cap_sq: float | None = None
    outer_window: int | None = None
    outer_capped: bool = False
    bracket_upper: float | None = None   # sqrt(cap^2 + mu_tail(outer))
    ramp_upper: float | None = None      # explicit admissible ramp
    residual: float | None = None

    @property
    def certified_upper(self) -> float:
        vals = [v for v in (self.bracket_upper, self.ramp_upper)
                if v is not None]
        return min(vals) if vals else math.inf


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
                 "cap_sq": e.solver_cap_sq, "outer": e.outer_window,
                 "outer_capped": e.outer_capped,
                 "bracket_upper": e.bracket_upper,
                 "ramp_upper": e.ramp_upper,
                 "certified_upper": (None if math.isinf(e.certified_upper)
                                     else e.certified_upper)}
                for e in self.entries],
            "cummin_upper": self.cummin_upper,
            "diagnostics": self.diagnostics,
        }


@dataclass
class CapacityReport:
    family: str
    per_end: list                    # CapacitySequence per end
    boundary_regime: str
    polarity: str                    # polar | non-polar | inconclusive
    thresholds: dict = field(default_factory=dict)

    def to_dict(self):
        return {"family": self.family,
                "per_end": [s.to_dict() for s in self.per_end],
                "boundary_regime": self.boundary_regime,
                "polarity": self.polarity, "thresholds": self.thresholds}


def _ramp_upper(end, N: int) -> float:
    """||eta||_Q for the admissible ramp: 0 out to N/2, linear to 1 at N,
    constant 1 on the tail. A true upper bound for Cap(tail_N)."""
    a, b = max(1, N // 2), N
    if b - a < 1:
        return math.inf
    ks = np.arange(a, b, dtype=float)
    inc = 1.0 / (b - a)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(end.w_fn(ks), dtype=float)
        en = float(np.sum(w)) * inc * inc
        mu_ramp = np.asarray(end.mu_fn(ks[1:] if ks.size > 1 else ks),
                             dtype=float)
        prof = ((ks[1:] if ks.size > 1 else ks) - a) * inc
        mass = float(np.sum(mu_ramp * prof * prof))
    try:
        tail = end.mu_tail(b).upper
    except InputError:
        return math.inf
    total = en + mass + tail
    if not math.isfinite(total):
        return math.inf
    return math.sqrt(total)


def boundary_capacity(fam: GraphFamily, sigma="canonical",
                      solver_tail_max: int = 256, outer_cap: int = 4096,
                      analytic_tail_max: int = 1 << 22) -> CapacityReport:
    """Tail-capacity sequences for every end, with regime verdicts.

    Per end: solver values Cap_M(tail_N) on outer windows M >= 4N (M
    doubles until the value moves by < 1e-6 relatively or the family's
    float range caps the window), bracketed above by mu_tail(M); plus
    analytic ramp bounds extending the tail grid beyond any buildable
    window. Regime rules:

      infinite:        the end has infinite measure (no solving needed)
      positive-finite: the end carries a finite tail-resistance bound, so
                       Cap >= (1/mu(1) + sum 1/w)^(-1/2) > 0 certified;
                       or, as weaker evidence, the solver caps plateau
                       (last-quartile relative change < 1e-4) above 0.01
      zero:            running-min certified upper bound drops below 1e-3
                       with log-log slope < -0.2 over the last 4 entries
                       (or hitting exact zero by underflow)

    Contradictory certificates (an upper bound under the resistance lower
    bound) raise NumericalError.
    """
    ends = fam.ends()
    if not ends:
        raise InputError(f"{fam.describe()}: no ends, no boundary capacity")
    sequences = []
    for end in ends:
        if end.mu_is_infinite():
            sequences.append(CapacitySequence(
                end.label, "infinite",
                diagnostics={"basis": "infinite measure: constants are not "
                                      "integrable, every tail has infinite "
                                      "capacity"}))
            continue
        maxwin = fam.max_window(outer_cap)
        entries = []
        noise_note = None
        n_tail = 4
        while n_tail <= min(solver_tail_max, maxwin // 4):
            # the equilibrium potential is ~1 near the tail, so its
            # increments there are invisible below w(N) eps^2: stop the
            # solver grid before representability noise pollutes the energy
            w_near = float(np.asarray(end.w_fn(np.float64(n_tail))))
            if w_near * np.finfo(float).eps ** 2 > 1e-12:
                noise_note = (f"solver grid stopped at tail {n_tail}: energy "
                              "increments below float64 resolution")
                break
            entry = CapacityEntry(n_tail)
            m = 4 * n_tail
            prev = None
            while True:
                g = fam.truncate(m)
                r = equilibrium(g, fam.tail_ids(end, n_tail, m))
                entry.solver_cap, entry.solver_cap_sq = r.cap, r.cap_sq
                entry.outer_window, entry.residual = m, r.residual
                stable = prev is not None and \
                    abs(r.cap - prev) <= 1e-6 * max(abs(r.cap), 1e-300)
                prev = r.cap
                if stable:
                    break
                if 2 * m > maxwin:
                    entry.outer_capped = True
                    break
                m *= 2
            entry.bracket_upper = math.sqrt(
                entry.solver_cap_sq + end.mu_tail(entry.outer_window).upper)
            entry.ramp_upper = _ramp_upper(end, n_tail)
            entries.append(entry)
            n_tail *= 2
        while n_tail <= analytic_tail_max:
            entry = CapacityEntry(n_tail, ramp_upper=_ramp_upper(end, n_tail))
            entries.append(entry)
            n_tail *= 2

        uppers = [e.certified_upper for e in entries]
        cummin = list(np.minimum.accumulate(uppers)) if uppers else []
        diag = {}
        if noise_note:
            diag["solver_stopped"] = noise_note
        lower = None
        if end.res_upper is not None and math.isfinite(end.res_upper):
            # Cap(tail_N) >= (1/mu(1) + sum_{k>=1} 1/w(k))^(-1/2) for every
            # N >= 1: for admissible u, 1 <= u(N) <= |u(1)| + sum |du| and
            # Cauchy-Schwarz against the norm. Uniform in N, so it bounds
            # the boundary capacity from below.
            mu1 = float(np.asarray(end.mu_fn(np.float64(1))))
            lower = (1.0 / mu1 + end.res_upper) ** -0.5
            diag["resistance_lower"] = lower
        zero_evidence = False
        regime = "inconclusive"
        if cummin:
            finite = [(n, v) for n, v in zip((e.tail_start for e in entries),
                                             cummin) if math.isfinite(v)]
            fired = [n for n, v in finite if v < POLAR_THRESHOLD]
            slope = loglog_slope([n for n, _ in finite[-4:]],
                                 [v for _, v in finite[-4:]])
            zero_hit = any(v == 0.0 for _, v in finite)
            diag["upper_below_threshold_at"] = fired[0] if fired else None
            diag["upper_loglog_slope"] = slope
            caps = [e.solver_cap for e in entries if e.solver_cap is not None]
            if caps:
                q = last_quartile(len(caps))
                tailvals = caps[q]
                rel = max(abs(b - a) / max(abs(b), 1e-300)
                          for a, b in zip(tailvals, tailvals[1:])) \
                    if len(tailvals) > 1 else math.inf
                diag["solver_last_quartile_change"] = rel
                diag["solver_last"] = caps[-1]
            zero_evidence = bool(fired) and (
                zero_hit or (not math.isnan(slope) and slope < POLAR_SLOPE))
            if lower is not None:
                if zero_evidence or min(v for _, v in finite) \
                        < lower * (1 - 1e-9):
                    raise NumericalError(
                        f"end {end.label}: certified upper bounds fall below "
                        f"the certified resistance lower bound {lower:.3e}")
                regime = "positive-finite"
            elif zero_evidence:
                regime = "zero"
            elif caps and diag.get("solver_last_quartile_change", math.inf) \
                    < PLATEAU_CHANGE and caps[-1] > POSITIVE_FLOOR:
                regime = "positive-finite"
        elif lower is not None:
            regime = "positive-finite"
        sequences.append(CapacitySequence(end.label, regime, entries,
                                          cummin, diag))

    regimes = {s.regime for s in sequences}
    if "positive-finite" in regimes:
        boundary = "positive-finite" if regimes == {"positive-finite"} \
            else "infinite" if "infinite" in regimes else "positive-finite"
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
    r_bounds: np.ndarray
    mu_ball: np.ndarray
    mu_bounds: np.ndarray
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
                "ratios": self.ratios.tolist(),
                "local_slopes": self.local_slopes.tolist(),
                "fit_slope": self.fit_slope, "codim": self.codim,
                "codim_local": self.codim_local, "exact": self.exact,
                "closed_form": self.closed_form}


def minkowski_samples(fam: GraphFamily, depth: int = 40,
                      closed_form: float | None = None) -> CodimEstimate:
    """Samples (r(x), mu(B_r(x))) along the single boundary end.

    B_r(boundary) for r = r(x) is exactly the tail from x (boundary
    distances decrease outward), so mu(B_r) = mu_tail(x). Three codimension
    estimators are reported: pointwise ratios ln mu / ln r (the definition;
    a limsup proxy takes their max over the deepest quartile), two-point
    local slopes, and a least-squares log-log fit.
    """
    bm = boundary_model(fam)
    bps = bm.boundary_ends()
    if len(bps) != 1:
        raise InputError("codimension sampling needs exactly one boundary end")
    end = bps[0]
    if end.mu_is_infinite():
        raise InputError("measure of the space is infinite; mu(B_r) diverges")
    xs = np.arange(1, depth + 1)
    r = np.empty(len(xs))
    rb = np.empty(len(xs))
    mb = np.empty(len(xs))
    mbb = np.empty(len(xs))
    exact = True
    for i, x in enumerate(xs):
        ts = end.sigma_tail(int(x))
        tm = end.mu_tail(int(x))
        r[i], rb[i] = ts.value, ts.bound
        mb[i], mbb[i] = tm.value, tm.bound
        exact = exact and ts.exact and tm.exact
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
    if closed_form is None:
        closed_form = getattr(fam, "codim_closed_form", None)
    return CodimEstimate(xs, r, rb, mb, mbb, ratios, local, fit,
                         codim, codim_local, exact, closed_form)


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

    def to_dict(self):
        return {"family": self.family,
                "entries": [vars(e) for e in self.entries],
                "decreasing": self.decreasing,
                "final_value": self.final_value, "fires": self.fires}


def codim_polarity_test(fam: GraphFamily, depth: int = 30) -> PolarityTestResult:
    """Cutoffs eta at scales r_n/2 witness Cap(boundary) = 0 when the
    boundary has Minkowski codimension > 2.

    eta(x) = ((2R - d(x, boundary)) / R)_+ ^ 1 with R = r_n / 2: equal to 1
    where d <= r_n/2, zero where d >= r_n. Each ||eta||_Q is an upper bound
    for the capacity of a boundary neighborhood and is checked against the
    bound sqrt(mu(B_{r_n}) + 4 mu(B_{r_n}) / r_n^2).
    """
    bm = boundary_model(fam)
    bps = bm.boundary_ends()
    if len(bps) != 1:
        raise InputError("polarity test needs exactly one boundary end")
    end = bps[0]
    entries = []
    for n in range(2, depth + 1):
        r_n = end.sigma_tail(n).value
        R = r_n / 2.0
        # support of the ramp: vertices x with r(x) < r_n, i.e. x > n;
        # eta reaches 1 once r(x) <= R. Find that index by scanning.
        x1 = n + 1
        while end.sigma_tail(x1).value > R:
            x1 += 1
            if x1 > n + 10000:
                raise NumericalError("cutoff never saturates; tails too flat")
        window = x1 + 2
        g = fam.truncate(window)
        rv = np.array([end.sigma_tail(k).value for k in range(window)])
        eta = np.clip((2 * R - rv) / R, 0.0, 1.0)
        f = VertexFunction(g, eta)
        en = energy(f)
        mass_window = norm_sq(f)
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
