"""Family catalog, golden-claim checks, and reproducible gallery runs.

Registered families (keyed as in the CLI):

  ex5.1   line, w == 1, mu(x) = 2^-|x| (1+x^2)^-p (default p=4): polar
          two-point boundary, harmonic witness refutes ESA, Markov unique
  ex5.2   ray, mu == 1, w(x,x+1) = (x+1)^4: infinite measure, finite total
          length, infinite boundary capacity, ESA (solution evidence)
  ex5.3a  ray, mu = 2^-x, w = 2^x: capacity strictly between 0 and infinity,
          forms differ, not Markov unique
  ex5.3   line glued from a mirrored ex5.2 and ex5.3a
  ex5.4   ray, w == 1/8, mu = 4^-x: dyadic boundary distances r(x) = 2^(1-x),
          mu(B_r) = r^2/3, codimension 2, polar
  ex5.5   ray, w = (x+1)^2, mu = (x+1)^2 4^-x: codimension 2 from below,
          non-polar
  ex5.6   ray with parameters alpha > 0 and case 1 (w == 1) or 2 (w = 2^x):
          declared lengths 2^-alpha(x+1), mu = 2^-(2 alpha - 1) x,
          codimension 2 - 1/alpha; case 1 polar, case 2 non-polar
  codim3  ray with sigma = 2^-x, mu = 8^-x, w = min(mu)/2 sigma^2:
          codimension 3, cutoff sequence certifies polarity
  a5.1    star of 2-edge rays: complete in sigma_0 yet B_1(hub) grows
  a5.3    star with an extra point joined like the hub: d(hub, extra) -> 0
  a5.4    star with heavy inner edges: two-point distances shrink to 0
  a5.2, a5.5 are registered but unsupported (they need an end-space model).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classify import Budget, classify, resolve_budget
from .completeness import PathMetric, lengths_for
from .errors import InputError, NumericalError, UnsupportedFamilyError
from .graphs import End, GraphFamily, LineFamily, RayFamily, WeightedGraph
from .metrics import sigma0
from .potential import codim_polarity_test, minkowski_samples

SCHEMA_VERSION = 2


# -- concrete families -------------------------------------------------------

def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _build_ex51(params):
    p = float(params.get("p", 4.0))
    if p <= 0:
        raise InputError("ex5.1: p must be positive")

    def mu_of(a):
        a = np.asarray(a, dtype=float)
        return 2.0 ** (-a) * (1.0 + a * a) ** (-p)

    def sig(a):
        # edge between |x| = a and |x| = a + 1; every vertex has two unit
        # edges, so Deg = 2 / mu and sigma_0 = min over endpoints of
        # sqrt(mu / 2), capped at 1
        a = np.asarray(a, dtype=float)
        return np.minimum(
            np.minimum(np.sqrt(mu_of(a) / 2.0), np.sqrt(mu_of(a + 1.0) / 2.0)),
            1.0)

    side = End(_ones, mu_of, sig, sigma_ratio=2.0 ** -0.5, mu_ratio=0.5)
    return LineFamily("ex5.1", side, side, params={"p": p})


def _build_ex52(params):
    _no_params("ex5.2", params)

    def w_fn(x):
        x = np.asarray(x, dtype=float)
        return (x + 1.0) ** 4

    # sigma_0(x, x+1) = ((x+1)^4 + (x+2)^4)^-1/2 on the infinite ray; the
    # tail beyond depth d is below sum_{y >= d} (y+1)^-2 / sqrt2 <= 1/(d sqrt2)
    def sigma_fn(x):
        x = np.asarray(x, dtype=float)
        return ((x + 1.0) ** 4 + (x + 2.0) ** 4) ** -0.5

    return RayFamily("ex5.2", w_fn, _ones, sigma_fn=sigma_fn,
                     sigma_rem_fn=lambda d: 2.0 ** -0.5 / max(d, 1),
                     mu_total=math.inf)


def _build_ex53a(params):
    _no_params("ex5.3a", params)
    inv_sqrt6 = 6.0 ** -0.5
    return RayFamily(
        "ex5.3a",
        w_fn=lambda x: 2.0 ** np.asarray(x, dtype=float),
        mu_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: inv_sqrt6 * 2.0 ** -np.asarray(x, dtype=float),
        sigma_tail_fn=lambda k: inv_sqrt6 * 2.0 ** (1 - k),
        mu_tail_fn=lambda k: 2.0 ** (1 - k),
        mu_total=2.0, res_upper=1.0, window_cap=1000)


def _build_ex53(params):
    _no_params("ex5.3", params)
    inv_sqrt6 = 6.0 ** -0.5
    plus = End(
        w_fn=lambda x: 2.0 ** np.asarray(x, dtype=float),
        mu_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: inv_sqrt6 * 2.0 ** -np.asarray(x, dtype=float),
        sigma_tail_fn=lambda k: inv_sqrt6 * 2.0 ** (1 - k),
        mu_tail_fn=lambda k: 2.0 ** (1 - k),
        mu_total=2.0, res_upper=1.0)
    minus = End(
        w_fn=lambda k: (np.asarray(k, dtype=float) + 1.0) ** 4,
        mu_fn=_ones,
        sigma_fn=lambda k: ((np.asarray(k, dtype=float) + 1.0) ** 4
                            + (np.asarray(k, dtype=float) + 2.0) ** 4) ** -0.5,
        sigma_rem_fn=lambda d: 2.0 ** -0.5 / max(d, 1),
        mu_total=math.inf)
    return LineFamily("ex5.3", minus, plus)


def _build_ex54(params):
    _no_params("ex5.4", params)
    fam = RayFamily(
        "ex5.4",
        w_fn=lambda x: np.full_like(np.asarray(x, dtype=float), 0.125),
        mu_fn=lambda x: 4.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_tail_fn=lambda k: 2.0 ** (1 - k),
        mu_tail_fn=lambda k: (4.0 / 3.0) * 4.0 ** -k,
        mu_total=4.0 / 3.0, window_cap=520)
    fam.codim_closed_form = 2.0
    return fam


def _build_ex55(params):
    _no_params("ex5.5", params)

    def mu_tail(k):
        # sum_{y>=k} (y+1)^2 4^-y = 4^-k ((4/3)(k+1)^2 + (8/9)(k+1) + 20/27)
        return 4.0 ** -k * ((4.0 / 3.0) * (k + 1) ** 2
                            + (8.0 / 9.0) * (k + 1) + 20.0 / 27.0)

    fam = RayFamily(
        "ex5.5",
        w_fn=lambda x: (np.asarray(x, dtype=float) + 1.0) ** 2,
        mu_fn=lambda x: ((np.asarray(x, dtype=float) + 1.0) ** 2
                         * 4.0 ** -np.asarray(x, dtype=float)),
        sigma_fn=lambda x: 2.0 ** -(np.asarray(x, dtype=float) + 2.0),
        sigma_kind="declared",
        sigma_tail_fn=lambda k: 2.0 ** -(k + 1.0),
        mu_tail_fn=mu_tail,
        mu_total=80.0 / 27.0,
        res_upper=math.pi ** 2 / 6.0 - 1.0 + 1e-12,
        window_cap=520)
    fam.codim_closed_form = 2.0
    return fam


def _build_ex56(params):
    allowed = {"alpha", "case"}
    extra = set(params) - allowed
    if extra:
        raise InputError(f"ex5.6: unknown parameters {sorted(extra)}")
    alpha = float(params.get("alpha", 1.0))
    case = int(params.get("case", 1))
    if alpha <= 0:
        raise InputError("ex5.6: alpha must be positive")
    if case not in (1, 2):
        raise InputError("ex5.6: case must be 1 or 2")
    beta = 2.0 * alpha - 1.0   # mu decay exponent
    res_upper = None
    if case == 1:
        w_fn = _ones
    else:
        def w_fn(x):
            return 2.0 ** np.asarray(x, dtype=float)
        res_upper = 1.0        # sum_{k>=1} 2^-k
    if beta > 0:
        mu_tail_fn = lambda k: 2.0 ** (-beta * k) / (1.0 - 2.0 ** -beta)
        mu_total = mu_tail_fn(0)
    else:
        mu_tail_fn, mu_total = None, math.inf
    fam = RayFamily(
        f"ex5.6", w_fn,
        mu_fn=lambda x: 2.0 ** (-beta * np.asarray(x, dtype=float)),
        params={"alpha": alpha, "case": case},
        sigma_fn=lambda x: 2.0 ** (-alpha * (np.asarray(x, dtype=float) + 1.0)),
        sigma_kind="declared",
        sigma_tail_fn=lambda k: 2.0 ** (-alpha * k) / (2.0 ** alpha - 1.0),
        mu_tail_fn=mu_tail_fn, mu_total=mu_total, res_upper=res_upper,
        window_cap=2000)
    fam.codim_closed_form = 2.0 - 1.0 / alpha
    return fam


def _build_codim3(params):
    _no_params("codim3", params)
    fam = RayFamily(
        "codim3",
        w_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float) / 16.0,
        mu_fn=lambda x: 8.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_kind="declared",
        sigma_tail_fn=lambda k: 2.0 ** (1 - k),
        mu_tail_fn=lambda k: (8.0 / 7.0) * 8.0 ** -k,
        mu_total=8.0 / 7.0, window_cap=340)
    fam.codim_closed_form = 3.0
    return fam


def _no_params(name, params):
    if params:
        raise InputError(f"{name}: takes no parameters, got {sorted(params)}")


class StarFamily(GraphFamily):
    """Hub 0 joined to the tip 2n of every 2-edge ray (2n-1, 2n), mu == 1.

    window = number of rays realized. Not locally finite in the limit (the
    hub meets every ray), so completeness dichotomies do not apply; these
    families exist to exhibit limit phenomena of the truncation sequence.
    """

    locally_finite = False

    def __init__(self, name, hub_w, inner_w, hub_leak, with_extra=False,
                 extra_w=None, extra_leak=None, ray_cap=900):
        self.name = name
        self.params = {}
        self.hub_w = hub_w
        self.inner_w = inner_w
        self.hub_leak = hub_leak
        self.with_extra = with_extra
        self.extra_w = extra_w
        self.extra_leak = extra_leak
        self._ray_cap = ray_cap

    def truncate(self, window: int) -> WeightedGraph:
        n_rays = int(window)
        if n_rays < 2:
            raise InputError("window must be at least 2 rays")
        if n_rays > self._ray_cap:
            raise InputError(f"{self.name}: window beyond float range")
        size = 2 * n_rays + 1 + (1 if self.with_extra else 0)
        edges = []
        labels = {0: 0}
        for n in range(1, n_rays + 1):
            edges.append((0, 2 * n, float(self.hub_w(n))))
            edges.append((2 * n - 1, 2 * n, float(self.inner_w(n))))
            labels[2 * n - 1] = 2 * n - 1
            labels[2 * n] = 2 * n
        leak = {0: float(self.hub_leak(n_rays))}
        if self.with_extra:
            extra = size - 1
            labels[extra] = "extra"
            for n in range(1, n_rays + 1):
                edges.append((extra, 2 * n, float(self.extra_w(n))))
            leak[extra] = float(self.extra_leak(n_rays))
        return WeightedGraph(size, edges, np.ones(size), leak=leak,
                             labels=labels)

    def canonical_lengths(self, g: WeightedGraph):
        return sigma0(g)

    def max_window(self, cap: int) -> int:
        return min(int(cap), self._ray_cap)

    def extra_id(self, window: int) -> int:
        if not self.with_extra:
            raise InputError(f"{self.name} has no extra vertex")
        return 2 * int(window) + 1


def _build_a51(params):
    _no_params("a5.1", params)
    return StarFamily("a5.1", hub_w=lambda n: 2.0 ** -n,
                      inner_w=lambda n: 1.0 - 2.0 ** -n,
                      hub_leak=lambda N: 2.0 ** -N, ray_cap=1000)


def _build_a53(params):
    _no_params("a5.3", params)
    return StarFamily("a5.3", hub_w=lambda n: 2.0 ** -n,
                      inner_w=lambda n: 4.0 ** n,
                      hub_leak=lambda N: 2.0 ** -N,
                      with_extra=True, extra_w=lambda n: 2.0 ** -n,
                      extra_leak=lambda N: 2.0 ** -N, ray_cap=500)


def _build_a54(params):
    _no_params("a5.4", params)
    return StarFamily("a5.4", hub_w=lambda n: 2.0 ** -n,
                      inner_w=lambda n: 2.0 ** n,
                      hub_leak=lambda N: 2.0 ** -N, ray_cap=1000)


def _build_unsupported(which):
    def build(params):
        raise UnsupportedFamilyError(
            f"{which} requires an end-space model beyond single linear ends; "
            "not implemented")
    return build


@dataclass(frozen=True)
class FamilySpec:
    name: str
    summary: str
    build: object
    supported: bool = True


REGISTRY = {
    "ex5.1": FamilySpec("ex5.1", "line, unit weights, rapidly decaying "
                        "measure; polar boundary", _build_ex51),
    "ex5.2": FamilySpec("ex5.2", "ray, infinite measure, quartic weights; "
                        "essentially self-adjoint", _build_ex52),
    "ex5.3a": FamilySpec("ex5.3a", "ray, geometric measure and weights; "
                         "capacity in (0, inf)", _build_ex53a),
    "ex5.3": FamilySpec("ex5.3", "line glued from ex5.2 and ex5.3a",
                        _build_ex53),
    "ex5.4": FamilySpec("ex5.4", "dyadic ray: r(x) = 2^(1-x), "
                        "mu(B_r) = r^2/3, codim 2, polar", _build_ex54),
    "ex5.5": FamilySpec("ex5.5", "quadratically weighted ray, codim 2 from "
                        "below, non-polar", _build_ex55),
    "ex5.6": FamilySpec("ex5.6", "alpha-parametrized ray, codim 2 - 1/alpha; "
                        "case 1 polar, case 2 non-polar", _build_ex56),
    "codim3": FamilySpec("codim3", "ray with boundary codimension 3; cutoff "
                         "sequence certifies polarity", _build_codim3),
    "a5.1": FamilySpec("a5.1", "star with 2-edge rays: complete but B_1(hub) "
                       "grows without bound", _build_a51),
    "a5.3": FamilySpec("a5.3", "star plus an extra hub-like vertex at "
                       "sigma_0-distance 0 from the hub", _build_a53),
    "a5.4": FamilySpec("a5.4", "star with heavy inner edges: pairs at "
                       "vanishing distance", _build_a54),
    "a5.2": FamilySpec("a5.2", "unsupported (needs an end-space model)",
                       _build_unsupported("a5.2"), supported=False),
    "a5.5": FamilySpec("a5.5", "unsupported (needs an end-space model)",
                       _build_unsupported("a5.5"), supported=False),
}


def build_family(name: str, params: dict | None = None) -> GraphFamily:
    try:
        spec = REGISTRY[name]
    except KeyError:
        raise InputError(
            f"unknown family {name!r} (known: {sorted(REGISTRY)})") from None
    try:
        return spec.build(dict(params or {}))
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad parameters for family {name!r}: {exc}") from exc


# -- golden claims -----------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    observed: str = ""
    expected: str = ""
    skipped: bool = False
    reason: str = ""

    def to_dict(self):
        return dataclasses.asdict(self)


def _verdict_checks(rep, expect: dict) -> list:
    out = []
    got = {
        "completeness": rep.completeness,
        "polarity": rep.polarity,
        "markov_unique": rep.markov_unique.value,
        "esa": rep.esa.value,
        "boundary_regime": (rep.capacity.boundary_regime
                            if rep.capacity else None),
    }
    for key, want in expect.items():
        have = got[key]
        ok = have is not None and (have == want or
                                   (want.endswith("*") and
                                    str(have).startswith(want[:-1])))
        out.append(Check(key, ok, str(have), want))
    return out


def _codim_claim(rep, target, tol, name="codim"):
    est = rep.codim
    if est is None:
        return [Check(name, False, "missing", f"{target:+.4f}")]
    ok = abs(est.codim - target) <= tol
    return [Check(name, ok, f"{est.codim:.4f}", f"{target:.4f} +- {tol}")]


def _check_ex51(fam, rep, bud):
    out = _verdict_checks(rep, {
        "completeness": "incomplete-evidence", "polarity": "polar",
        "markov_unique": "yes", "esa": "no", "boundary_regime": "zero"})
    ends = [s for s in rep.capacity.per_end]
    out.append(Check("two polar ends", len(ends) == 2 and
                     all(s.regime == "zero" for s in ends),
                     str([s.regime for s in ends]), "zero on both ends"))
    out.append(Check("witness fired", rep.witness is not None
                     and rep.witness.passed, str(rep.witness and
                                                 rep.witness.passed), "True"))
    return out


def _check_ex52(fam, rep, bud):
    out = _verdict_checks(rep, {
        "completeness": "incomplete-evidence", "boundary_regime": "infinite",
        "markov_unique": "yes", "esa": "yes*"})
    sol = rep.lambda_solutions["plus"]
    out.append(Check("lambda solution increasing, not square-summable",
                     sol.increasing and sol.l2.verdict == "diverged",
                     f"increasing={sol.increasing}, l2={sol.l2.verdict}",
                     "increasing=True, l2=diverged"))
    out.append(Check("bounded solution criterion converges",
                     sol.criterion.verdict == "converged",
                     sol.criterion.verdict, "converged"))
    return out


def _check_ex53a(fam, rep, bud):
    out = _verdict_checks(rep, {
        "boundary_regime": "positive-finite", "polarity": "non-polar",
        "markov_unique": "no", "esa": "no"})
    sol = rep.lambda_solutions["plus"]
    out.append(Check("lambda solution in maximal form domain",
                     sol.in_max_form_domain,
                     f"bounded={sol.bounded}, l2={sol.l2.verdict}, "
                     f"energy={sol.energy.verdict}", "all converged"))
    out.append(Check("boundary alternative separates the forms",
                     rep.boundary_alternative.verdict.startswith(
                         "forms differ"),
                     rep.boundary_alternative.verdict, "forms differ*"))
    return out


def _check_ex53(fam, rep, bud):
    out = _verdict_checks(rep, {
        "boundary_regime": "infinite", "markov_unique": "no"})
    regimes = {s.end_label: s.regime for s in rep.capacity.per_end}
    out.append(Check("per-end regimes", regimes == {
        "minus": "infinite", "plus": "positive-finite"},
        str(regimes), "minus: infinite, plus: positive-finite"))
    return out


def _check_ex54(fam, rep, bud):
    out = _verdict_checks(rep, {
        "completeness": "incomplete-evidence", "polarity": "polar",
        "markov_unique": "yes", "boundary_regime": "zero"})
    est = rep.codim
    out.append(Check("local slope = 2 (dyadic scaling)",
                     est is not None and abs(est.codim_local - 2.0) <= 0.01,
                     f"{est.codim_local:.6f}" if est else "missing",
                     "2 +- 0.01"))
    end = fam.ends()[0]
    exact = all(
        end.sigma_tail(x).value == 2.0 ** (1 - x) and
        abs(end.mu_tail(x).value - (2.0 ** (1 - x)) ** 2 / 3.0)
        <= 1e-12 * end.mu_tail(x).value
        for x in range(1, 31))
    out.append(Check("r(x) = 2^(1-x), mu(B_r) = r^2/3 to 1e-12", exact,
                     "exact" if exact else "drift", "exact"))
    return out


def _check_ex55(fam, rep, bud):
    out = _verdict_checks(rep, {
        "boundary_regime": "positive-finite", "polarity": "non-polar",
        "markov_unique": "no"})
    est = rep.codim
    if est is None:
        out.append(Check("codim ratios", False, "missing", ""))
        return out
    ratios = est.ratios[~np.isnan(est.ratios)]
    mono = bool(np.all(np.diff(ratios) > 0)) and bool(np.all(ratios <= 2.0))
    out.append(Check("pointwise ratios increase toward 2 from below", mono,
                     f"last={ratios[-1]:.4f}", "increasing, <= 2"))
    out.append(Check("local slope approaches 2",
                     est.codim_local >= 1.85 and est.codim_local <= 2.0,
                     f"{est.codim_local:.4f}", "in [1.85, 2]"))
    return out


def _check_ex56(fam, rep, bud):
    alpha = fam.params["alpha"]
    case = fam.params["case"]
    target = 2.0 - 1.0 / alpha
    expect = {"polarity": "polar", "markov_unique": "yes",
              "boundary_regime": "zero"} if case == 1 else \
             {"polarity": "non-polar", "markov_unique": "no",
              "boundary_regime": "positive-finite"}
    out = _verdict_checks(rep, expect)
    out += _codim_claim(rep, target, 0.05)
    return out


def _check_codim3(fam, rep, bud):
    out = _verdict_checks(rep, {
        "polarity": "polar", "markov_unique": "yes",
        "boundary_regime": "zero"})
    out.append(Check("local slope = 3",
                     rep.codim is not None and
                     abs(rep.codim.codim_local - 3.0) <= 1e-9,
                     f"{rep.codim.codim_local:.9f}" if rep.codim else "missing",
                     "3 +- 1e-9"))
    pt = codim_polarity_test(fam, depth=min(30, bud.codim_depth + 14))
    ok = pt.fires and all(e.within_bound for e in pt.entries)
    out.append(Check("cutoff sequence under theorem bound, below 1e-3",
                     ok, f"final={pt.final_value:.3e}, "
                         f"bounds={'ok' if all(e.within_bound for e in pt.entries) else 'violated'}",
                     "decreasing below 1e-3 within bounds"))
    return out


def _star_metric(fam, window):
    g = fam.truncate(window)
    return g, PathMetric(lengths_for(g, "canonical", fam))


def _check_a51(fam, rep, bud):
    out = [Check("completeness verdict inapplicable",
                 rep.completeness.startswith("inapplicable"),
                 rep.completeness, "inapplicable*")]
    sizes = []
    ok_d = True
    for win in (8, 16, 32):
        g, m = _star_metric(fam, win)
        ok_d = ok_d and all(m.distance(0, 2 * n) == 1.0
                            for n in range(1, win + 1))
        sizes.append(len(m.ball(0, 1.0)))
    out.append(Check("d(hub, ray tip) == 1 exactly", ok_d, str(ok_d), "True"))
    out.append(Check("B_1(hub) = window + 1, growing",
                     sizes == [9, 17, 33], str(sizes), "[9, 17, 33]"))
    return out


def _check_a53(fam, rep, bud):
    out = [Check("completeness verdict inapplicable",
                 rep.completeness.startswith("inapplicable"),
                 rep.completeness, "inapplicable*")]
    ds = []
    for win in (8, 16, 32):
        g, m = _star_metric(fam, win)
        ds.append(m.distance(0, fam.extra_id(win)))
    ok = all(d <= 2.0 * 2.0 ** -w * 1.0001 for d, w in zip(ds, (8, 16, 32)))
    out.append(Check("d(hub, extra) <= 2^(1-window) -> 0",
                     ok and ds[2] < ds[1] < ds[0],
                     f"{ds[0]:.3e}, {ds[1]:.3e}, {ds[2]:.3e}",
                     "decreasing, <= 2*2^-window"))
    return out


def _check_a54(fam, rep, bud):
    out = [Check("completeness verdict inapplicable",
                 rep.completeness.startswith("inapplicable"),
                 rep.completeness, "inapplicable*")]
    g, m = _star_metric(fam, 40)
    d_far = m.distance(0, 80)   # tip of ray 40
    out.append(Check("d(hub, tip of ray n) ~ 2^(-n/2) -> 0",
                     d_far <= 2.0 ** -20 * 1.0001, f"{d_far:.3e}",
                     "<= 2^-20"))
    sizes = [len(_star_metric(fam, win)[1].ball(0, 0.25)) for win in (8, 16, 32)]
    out.append(Check("B_1/4(hub) grows with the window",
                     sizes[0] < sizes[1] < sizes[2], str(sizes),
                     "strictly increasing"))
    return out


GOLDEN_RUNS = [
    ("ex5.1", "ex5.1", {}, _check_ex51),
    ("ex5.2", "ex5.2", {}, _check_ex52),
    ("ex5.3a", "ex5.3a", {}, _check_ex53a),
    ("ex5.3", "ex5.3", {}, _check_ex53),
    ("ex5.4", "ex5.4", {}, _check_ex54),
    ("ex5.5", "ex5.5", {}, _check_ex55),
    ("ex5.6-a0.75-case1", "ex5.6", {"alpha": 0.75, "case": 1}, _check_ex56),
    ("ex5.6-a1-case1", "ex5.6", {"alpha": 1.0, "case": 1}, _check_ex56),
    ("ex5.6-a1-case2", "ex5.6", {"alpha": 1.0, "case": 2}, _check_ex56),
    ("ex5.6-a2-case1", "ex5.6", {"alpha": 2.0, "case": 1}, _check_ex56),
    ("ex5.6-a2-case2", "ex5.6", {"alpha": 2.0, "case": 2}, _check_ex56),
    ("codim3", "codim3", {}, _check_codim3),
    ("a5.1", "a5.1", {}, _check_a51),
    ("a5.3", "a5.3", {}, _check_a53),
    ("a5.4", "a5.4", {}, _check_a54),
]


# -- run records -------------------------------------------------------------

@dataclass
class RunRecord:
    schema_version: int
    tool: str
    label: str
    family: str
    params: dict
    sigma: str
    budget: str
    started: str
    finished: str
    classification: dict | None
    checks: list
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls(**json.loads(text))


def write_record_atomic(record: RunRecord, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    safe = record.label.replace("/", "_")
    path = os.path.join(out_dir, f"{safe}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(record.to_json())
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@dataclass
class GalleryResult:
    records: list
    failed_checks: list          # (label, Check)
    numerical_failures: list     # (label, message)
    exit_code: int

    def summary_lines(self):
        lines = []
        for rec in self.records:
            n_ok = sum(1 for c in rec.checks if c["passed"] or c["skipped"])
            status = "ERROR" if rec.error else (
                "ok" if n_ok == len(rec.checks) else "MISMATCH")
            lines.append(f"{rec.label:24s} {status:8s} "
                         f"{n_ok}/{len(rec.checks)} checks")
        return lines


def run_gallery(select=None, budget="standard", out_dir=None) -> GalleryResult:
    """Classify every golden family, compare against expected results, and
    optionally persist one JSON run record per family.

    Exit code semantics: 0 all claims hold, 1 golden mismatch,
    2 input error (raised), 3 numerical failure in some run.
    """
    bud = resolve_budget(budget)
    if select:
        wanted = [s.strip() for s in select]
        runs = [r for r in GOLDEN_RUNS
                if any(r[0] == w or r[1] == w for w in wanted)]
        unknown = [w for w in wanted
                   if not any(r[0] == w or r[1] == w for r in GOLDEN_RUNS)]
        if unknown:
            raise InputError(f"unknown gallery selection {unknown}")
    else:
        runs = list(GOLDEN_RUNS)
    records, failed, numfail = [], [], []
    for label, name, params, checker in runs:
        started = _now()
        error = None
        rep_dict = None
        checks = []
        try:
            fam = build_family(name, params)
            rep = classify(fam, "canonical", bud)
            rep_dict = rep.to_dict()
            checks = checker(fam, rep, bud)
        except NumericalError as exc:
            error = str(exc)
            numfail.append((label, error))
        record = RunRecord(
            schema_version=SCHEMA_VERSION, tool=f"iglab {__version__}",
            label=label, family=name, params=params, sigma="canonical",
            budget=bud.name, started=started, finished=_now(),
            classification=rep_dict,
            checks=[c.to_dict() for c in checks], error=error)
        records.append(record)
        if out_dir:
            write_record_atomic(record, out_dir)
        failed.extend((label, c) for c in checks
                      if not c.passed and not c.skipped)
    code = 3 if numfail else (1 if failed else 0)
    return GalleryResult(records, failed, numfail, code)
