"""Self-adjointness and Markov-uniqueness evidence for graph families.

The diagnostics assembled here:

  * lambda_solve: on a ray, every solution of (Delta + lambda) u = 0 is a
    multiple of the one generated from u(0) = 1 by summing the equation,

        u(x+1) - u(x) = (lambda / w(x,x+1)) * sum_{y <= x} u(y) mu(y),

    which is positive and increasing for lambda > 0. Whether u stays
    bounded is equivalent to sum_x (sum_{y<=x} mu(y)) / w(x,x+1) < inf.
    A bounded solution that is square-summable with finite energy lies in
    the maximal form domain and separates D(Q) from D(Q^max).

  * harmonic_witness_check: on a line with constant weights, h(x) = x is
    harmonic; if sum x^2 sqrt(mu(x)) < inf then h is square-summable while
    its energy grows like 2N per window, so the Laplacian has a defect:
    essential self-adjointness fails.

  * deg_ball_boundedness: tables of max Deg over neighborhoods of distance
    balls across windows; completeness plus a uniform bound per ball is
    the hypothesis of the self-adjointness theorem for intrinsic metrics.

classify() combines these with the capacity regimes and checks the
consistency rules (ESA implies Markov unique; polar boundary of finite
capacity implies Markov unique; a tail capacity in (0, inf) refutes it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .completeness import _ball_scan, hopf_rinow_report
from .errors import InputError
from .graphs import GraphFamily, combinatorial_neighborhood
from .potential import (CapacityReport, boundary_alternative_evidence,
                        boundary_capacity, minkowski_samples)
from .series import SeriesVerdict, plateau, series_verdict


@dataclass(frozen=True)
class Budget:
    name: str
    hopf_n_max: int
    solver_tail_max: int
    outer_cap: int
    analytic_tail_max: int
    lambda_window: int
    codim_depth: int
    degball_n_max: int


BUDGETS = {
    "quick": Budget("quick", 64, 16, 256, 1 << 16, 80, 16, 64),
    "standard": Budget("standard", 512, 128, 2048, 1 << 22, 200, 40, 256),
    "deep": Budget("deep", 1 << 16, 2048, 1 << 15, 1 << 24, 400, 60, 1024),
}


def resolve_budget(budget) -> Budget:
    if isinstance(budget, Budget):
        return budget
    try:
        return BUDGETS[budget]
    except KeyError:
        raise InputError(f"unknown budget {budget!r} "
                         f"(choose from {sorted(BUDGETS)})") from None


# -- lambda recursion --------------------------------------------------------

@dataclass
class LambdaSolution:
    lam: float
    window: int
    u: np.ndarray
    residual: float               # sup defect of the summed first-order form
    increasing: bool
    bounded: str                  # bounded | unbounded | inconclusive
    criterion: SeriesVerdict      # sum (sum_{y<=x} mu) / w
    l2: SeriesVerdict             # sum u^2 mu
    energy: SeriesVerdict         # sum w (u(x+1)-u(x))^2
    in_max_form_domain: bool      # bounded, square-summable, finite energy

    def to_dict(self):
        return {"lambda": self.lam, "window": self.window,
                "residual": self.residual, "increasing": self.increasing,
                "bounded": self.bounded,
                "criterion": self.criterion.verdict,
                "l2": self.l2.verdict, "energy": self.energy.verdict,
                "in_max_form_domain": self.in_max_form_domain,
                "u_last": float(self.u[-1])}


def _ray_lambda_solve(w_fn, mu_fn, lam: float, window: int) -> LambdaSolution:
    xs = np.arange(window, dtype=float)
    w = np.asarray(w_fn(xs[:-1]), dtype=float)
    mu = np.asarray(mu_fn(xs), dtype=float)
    u = np.empty(window)
    u[0] = 1.0
    s = 0.0
    for x in range(window - 1):
        s += u[x] * mu[x]
        u[x + 1] = u[x] + lam / w[x] * s
    inc = np.diff(u)
    # Verify the summed first-order form w(x) (u(x+1) - u(x)) =
    # lambda sum_{y<=x} u(y) mu(y) against an independently accumulated
    # right-hand side. (The raw three-term residual of (Delta+lambda)u is
    # cancellation-limited once w spans many decades, so it would measure
    # rounding, not correctness.)
    res = 0.0
    scale = max(1.0, float(np.max(np.abs(u))))
    for x in range(window - 1):
        rhs = lam * math.fsum(u[y] * mu[y] for y in range(x + 1)) / w[x]
        res = max(res, abs(u[x + 1] - u[x] - rhs))
    res /= scale
    cum_mu = np.cumsum(mu[:-1])
    criterion = series_verdict(cum_mu / w)
    l2 = series_verdict(u * u * mu)
    en = series_verdict(w * inc * inc)
    if criterion.verdict == "converged" or plateau(u):
        bounded = "bounded"
    elif criterion.verdict == "diverged" and not plateau(u):
        bounded = "unbounded"
    else:
        bounded = "inconclusive"
    in_dom = (bounded == "bounded" and l2.verdict == "converged"
              and en.verdict == "converged")
    return LambdaSolution(lam, window, u, res, bool(np.all(inc > 0)),
                          bounded, criterion, l2, en, in_dom)


def lambda_solve(fam: GraphFamily, lam: float = 1.0, window: int = 200):
    """Generate the lambda-harmonic solution along each ray of the family.

    Returns {end_label: LambdaSolution}. For a line family each half is
    solved independently as a one-sided ray (split construction); the
    results are diagnostic per half.
    """
    if lam <= 0:
        raise InputError("lambda must be positive")
    if not fam.ends():
        raise InputError(
            f"{fam.describe()}: lambda recursion needs a ray or line")
    return {end.label: _ray_lambda_solve(end.w_fn, end.mu_fn, lam, window)
            for end in fam.ends()}


# -- harmonic witness --------------------------------------------------------

@dataclass
class WitnessReport:
    window: int
    precondition: SeriesVerdict       # sum x^2 sqrt(mu)
    interior_residual: float          # sup |Delta h| over interior vertices
    l2: SeriesVerdict                 # sum x^2 mu
    energy_per_window: list           # (N, Q(h) on [-N, N])
    passed: bool
    basis: str

    def to_dict(self):
        return {"window": self.window,
                "precondition": self.precondition.verdict,
                "interior_residual": self.interior_residual,
                "l2": self.l2.verdict,
                "energy_per_window": self.energy_per_window,
                "passed": self.passed, "basis": self.basis}


def harmonic_witness_check(fam: GraphFamily,
                           window: int = 200) -> WitnessReport:
    """Check h(x) = x on a line family: harmonic, square-summable, with
    window energies growing like 2N (constant weights).

    Raises InputError when sum x^2 sqrt(mu) diverges (the witness is then
    not known to be square-summable and proves nothing).
    """
    if len(fam.ends()) != 2:
        raise InputError("the coordinate witness lives on a line family")
    minus, plus = fam.ends()
    xs = np.arange(window, dtype=float)
    mu_pos = np.asarray(plus.mu_fn(xs), dtype=float)
    mu_neg = np.asarray(minus.mu_fn(xs[1:]), dtype=float)
    pre_terms = np.concatenate([xs ** 2 * np.sqrt(mu_pos),
                                xs[1:] ** 2 * np.sqrt(mu_neg)])
    pre = series_verdict(pre_terms)
    if pre.verdict == "diverged":
        raise InputError(
            "witness precondition fails: sum x^2 sqrt(mu) diverges "
            f"(partial sum {pre.partial:.6g} at window {window})")
    l2 = series_verdict(np.concatenate([xs ** 2 * mu_pos,
                                        xs[1:] ** 2 * mu_neg]))
    # harmonicity on a small truncation, interior vertices only
    n_chk = min(window, 64)
    g = fam.truncate(n_chk)
    h = np.array([g.labels[i] for i in range(g.n)], dtype=float)
    res = 0.0
    for i in range(g.n):
        if i in g.frontier:
            continue
        s = math.fsum(w * (h[i] - h[j]) for j, w in g.adj[i].items())
        res = max(res, abs(s / g.mu[i]))
    energies = []
    for n in (8, 16, 32, 64):
        if n > n_chk:
            break
        gv = fam.truncate(n)
        hv = np.array([gv.labels[i] for i in range(gv.n)], dtype=float)
        e = math.fsum(w * (hv[a] - hv[b]) ** 2 for a, b, w in gv.edges())
        energies.append((n, e))
    passed = (res <= 1e-12 and l2.verdict == "converged")
    basis = ("harmonic coordinate in L2 with window energy growing like 2N: "
             "essential self-adjointness fails"
             if passed else "witness conditions not established")
    return WitnessReport(window, pre, res, l2, energies, passed, basis)


# -- degree/ball boundedness -------------------------------------------------

@dataclass
class DegBallReport:
    radii: list
    windows: list
    max_deg: dict            # radius -> list per window
    ball_sizes: dict
    stable: dict             # radius -> bool
    bounded_per_ball: bool

    def to_dict(self):
        return {"radii": self.radii, "windows": self.windows,
                "max_deg": {f"{r:.6g}": v for r, v in self.max_deg.items()},
                "stable": {f"{r:.6g}": v for r, v in self.stable.items()},
                "bounded_per_ball": self.bounded_per_ball}


def deg_ball_boundedness(fam: GraphFamily, sigma="canonical",
                         n_max: int = 256) -> DegBallReport:
    """Max weighted degree over n(B_r(x0)) across doubling windows.

    A radius row that stabilizes witnesses a finite bound for that ball;
    rows that keep growing (balls swallowing the whole window) witness the
    failure of the bounded-degree hypothesis at that radius.
    """
    windows = []
    max_deg: dict = {}
    sizes: dict = {}
    for win, g, d, radii in _ball_scan(fam, sigma, n_max, 4):
        windows.append(win)
        for r in radii:
            ball = tuple(int(v) for v in np.flatnonzero(d <= r))
            hood = combinatorial_neighborhood(g, ball)
            max_deg.setdefault(r, []).append(
                max(g.degree(x) for x in hood) if hood else 0.0)
            sizes.setdefault(r, []).append(len(ball))
    stable = {r: len(v) >= 3 and len(set(v[-3:])) == 1
              for r, v in sizes.items()}
    for r in radii:
        md = max_deg[r]
        stable[r] = stable[r] and max(md[-3:]) <= min(md[-3:]) * (1 + 1e-12)
    return DegBallReport(radii, windows, max_deg, sizes, stable,
                         all(stable.values()))


# -- combined classification -------------------------------------------------

@dataclass
class Verdict:
    value: str
    basis: str

    def to_dict(self):
        return vars(self)


@dataclass
class ClassificationReport:
    family: str
    params: dict
    sigma: str
    budget: str
    locally_finite: bool
    completeness: str
    markov_unique: Verdict
    esa: Verdict
    polarity: str
    capacity: CapacityReport | None = None
    lambda_solutions: dict = field(default_factory=dict)
    witness: WitnessReport | None = None
    deg_ball: DegBallReport | None = None
    codim: object | None = None
    boundary_alternative: object | None = None
    consistency: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    domain_note: str = ("operator domain: D(L) = {f in L2 : f, Delta f in L2} "
                        "with Delta applied pointwise; not computed here")

    def to_dict(self):
        return {
            "family": self.family, "params": self.params,
            "sigma": self.sigma, "budget": self.budget,
            "locally_finite": self.locally_finite,
            "completeness": self.completeness,
            "markov_unique": self.markov_unique.to_dict(),
            "esa": self.esa.to_dict(),
            "polarity": self.polarity,
            "capacity": self.capacity.to_dict() if self.capacity else None,
            "lambda": {k: v.to_dict() for k, v in
                       self.lambda_solutions.items()},
            "witness": self.witness.to_dict() if self.witness else None,
            "deg_ball": self.deg_ball.to_dict() if self.deg_ball else None,
            "codim": self.codim.to_dict() if self.codim is not None else None,
            "boundary_alternative": (self.boundary_alternative.to_dict()
                                     if self.boundary_alternative else None),
            "consistency": self.consistency,
            "notes": self.notes,
            "domain_note": self.domain_note,
        }


def _mu_total_finite(fam) -> bool | None:
    tot = 0.0
    for end in fam.ends():
        t = end.total_measure()
        if t is None:
            return None
        if math.isinf(t):
            return False
        tot += t
    return True


def classify(fam: GraphFamily, sigma="canonical",
             budget="standard") -> ClassificationReport:
    """Assemble completeness, capacity, spectral and witness evidence into
    uniqueness verdicts, and check their mutual consistency."""
    bud = resolve_budget(budget)
    notes = []
    hopf = hopf_rinow_report(fam, sigma, n_max=bud.hopf_n_max)
    completeness = hopf.verdict

    capacity = None
    polarity = "inconclusive"
    alt = None
    if fam.ends():
        capacity = boundary_capacity(
            fam, sigma, solver_tail_max=bud.solver_tail_max,
            outer_cap=bud.outer_cap,
            analytic_tail_max=bud.analytic_tail_max)
        polarity = capacity.polarity
        alt = boundary_alternative_evidence(capacity)
    else:
        notes.append("no linear ends: capacity diagnostics skipped")

    lam_sols = {}
    if fam.ends():
        lam_sols = lambda_solve(fam, 1.0, window=bud.lambda_window)

    witness = None
    if len(fam.ends()) == 2:
        try:
            witness = harmonic_witness_check(fam, window=bud.lambda_window)
        except InputError as exc:
            notes.append(f"witness skipped: {exc}")

    deg_ball = None
    try:
        deg_ball = deg_ball_boundedness(fam, sigma, n_max=bud.degball_n_max)
    except InputError:
        pass

    codim = None
    if fam.ends():
        try:
            codim = minkowski_samples(fam, depth=bud.codim_depth)
        except InputError as exc:
            notes.append(f"codim skipped: {exc}")

    # -- essential self-adjointness -----------------------------------------
    esa = Verdict("inconclusive", "no applicable theorem or witness")
    if witness is not None and witness.passed:
        esa = Verdict("no", witness.basis)
    elif (completeness == "complete-evidence" and fam.locally_finite
          and deg_ball is not None and deg_ball.bounded_per_ball):
        esa = Verdict("yes",
                      "complete with degree bounded on ball neighborhoods; "
                      "compactly supported functions are a core")
    elif len(lam_sols) == 1:
        (sol,) = lam_sols.values()
        (end,) = fam.ends()
        if sol.increasing and end.mu_is_infinite():
            esa = Verdict(
                "yes (evidence)",
                "solutions of (Delta+1)u=0 on a ray form a line; the "
                "generated solution is positive increasing and the measure "
                "is infinite, so no nontrivial solution is square-summable")

    # -- Markov uniqueness ---------------------------------------------------
    positive_end = capacity is not None and any(
        s.regime == "positive-finite" for s in capacity.per_end)
    dqmax_sol = any(s.in_max_form_domain for s in lam_sols.values())
    if completeness == "complete-evidence" and fam.locally_finite:
        mu_v = Verdict("yes", "metrically complete and locally finite")
    elif positive_end:
        mu_v = Verdict("no", "boundary alternative: a tail capacity lies "
                             "strictly between 0 and infinity")
    elif polarity == "polar" and _mu_total_finite(fam):
        mu_v = Verdict("yes", "polar boundary with finite total measure: "
                              "the forms with and without boundary "
                              "condition coincide")
    elif esa.value.startswith("yes"):
        mu_v = Verdict("yes", "essential self-adjointness implies Markov "
                              "uniqueness")
    else:
        mu_v = Verdict("inconclusive", "no rule applies at this budget")

    if dqmax_sol and mu_v.value != "no":
        notes.append("a lambda-solution sits in the maximal form domain "
                     "but the capacity rules did not fire; check budgets")
    if mu_v.value == "no" and esa.value == "inconclusive":
        esa = Verdict("no", "Markov uniqueness fails, so essential "
                            "self-adjointness fails as well")

    consistency = []
    consistency.append(
        ("esa => markov_unique",
         not (esa.value.startswith("yes") and mu_v.value == "no")))
    consistency.append(
        ("polar & finite capacity => markov_unique",
         not (polarity == "polar" and _mu_total_finite(fam)
              and mu_v.value == "no")))
    consistency.append(
        ("capacity in (0, inf) => not markov_unique",
         not (positive_end and mu_v.value == "yes")))
    if not all(ok for _, ok in consistency):
        raise AssertionError(f"inconsistent verdicts: {consistency}")

    return ClassificationReport(
        family=fam.name, params=dict(fam.params), sigma=str(sigma),
        budget=bud.name, locally_finite=fam.locally_finite,
        completeness=completeness, markov_unique=mu_v, esa=esa,
        polarity=polarity, capacity=capacity, lambda_solutions=lam_sols,
        witness=witness, deg_ball=deg_ball, codim=codim,
        boundary_alternative=alt, consistency=consistency, notes=notes)
