"""Family catalog, golden-claim checks, and reproducible gallery runs.

REGISTRY maps each family name, as the CLI takes it, to its builder,
whose keyword parameters are the family's parameters:

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
  a5.2, a5.5 are registered, but their builders raise
          UnsupportedFamilyError (they need an end-space model).

GOLDEN_RUNS lists (label, family, params, checker) per golden run. Each
checker is a Golden record: the expected verdicts as a dict, then the
claims that compute something. Runs share records where their claims
agree: the five ex5.6 runs take the polar or non-polar verdicts and one
codimension claim whose target is the family's codim_closed_form, and the
three a5.x runs share the claim that the completeness verdict is
inapplicable.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classify import classify, resolve_budget
from .completeness import PathMetric, lengths_for
from .errors import InputError, NumericalError, UnsupportedFamilyError
from .graphs import End, GraphFamily, LineFamily, RayFamily, WeightedGraph
from .metrics import sigma0
from .potential import codim_polarity_test
from .series import bounded_tail, geometric_tail

SCHEMA_VERSION = 2


# -- concrete families -------------------------------------------------------

def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _count(a, b):         # the sum of _ones over [a, b), exact
    return float(b - a)


def _build_ex51(p=4.0):
    p = float(p)
    if not p > 0:
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

    side = End(_ones, mu_of, sig,
               sigma_tail_fn=lambda k: geometric_tail(sig, k, 2.0 ** -0.5),
               mu_tail_fn=lambda k: geometric_tail(mu_of, k, 0.5),
               w_sum_fn=_count)
    return LineFamily("ex5.1", side, side, params={"p": p})


def _build_ex52():
    def w_fn(x):
        x = np.asarray(x, dtype=float)
        return (x + 1.0) ** 4

    # sigma_0(x, x+1) = ((x+1)^4 + (x+2)^4)^-1/2 on the infinite ray; the
    # tail beyond depth d is below sum_{y >= d} (y+1)^-2 / sqrt2 <= 1/(d sqrt2)
    def sigma_fn(x):
        x = np.asarray(x, dtype=float)
        return ((x + 1.0) ** 4 + (x + 2.0) ** 4) ** -0.5

    return RayFamily("ex5.2", w_fn, _ones, sigma_fn=sigma_fn,
                     sigma_tail_fn=lambda k: bounded_tail(
                         sigma_fn, k, lambda d: 2.0 ** -0.5 / max(d, 1)),
                     mu_tail_fn=lambda k: math.inf)


def _build_ex53a():
    inv_sqrt6 = 6.0 ** -0.5
    return RayFamily(
        "ex5.3a",
        w_fn=lambda x: 2.0 ** np.asarray(x, dtype=float),
        mu_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: inv_sqrt6 * 2.0 ** -np.asarray(x, dtype=float),
        sigma_tail_fn=lambda k: inv_sqrt6 * 2.0 ** (1 - k),
        mu_tail_fn=lambda k: 2.0 ** (1 - k),
        res_upper=1.0)


def _build_ex53():
    (minus,) = _build_ex52().ends()
    (plus,) = _build_ex53a().ends()
    return LineFamily("ex5.3", minus, plus)


def _build_ex54():
    fam = RayFamily(
        "ex5.4",
        w_fn=lambda x: np.full_like(np.asarray(x, dtype=float), 0.125),
        mu_fn=lambda x: 4.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_tail_fn=lambda k: 2.0 ** (1 - k),
        mu_tail_fn=lambda k: (4.0 / 3.0) * 4.0 ** -k,
        w_sum_fn=lambda a, b: 0.125 * (b - a))
    fam.codim_closed_form = 2.0
    return fam


def _build_ex55():
    def mu_tail(k):
        # sum_{y>=k} (y+1)^2 4^-y = 4^-k ((4/3)(k+1)^2 + (8/9)(k+1) + 20/27)
        return 4.0 ** -k * ((4.0 / 3.0) * (k + 1) ** 2
                            + (8.0 / 9.0) * (k + 1) + 20.0 / 27.0)

    def w_sum(a, b):
        # sum_{a < j <= b} j^2, while the rule's floats j^2 are exact
        sq = lambda n: n * (n + 1) * (2 * n + 1) // 6
        return float(sq(b) - sq(a)) if b * b <= 1 << 53 else None

    fam = RayFamily(
        "ex5.5",
        w_fn=lambda x: (np.asarray(x, dtype=float) + 1.0) ** 2,
        mu_fn=lambda x: ((np.asarray(x, dtype=float) + 1.0) ** 2
                         * 4.0 ** -np.asarray(x, dtype=float)),
        sigma_fn=lambda x: 2.0 ** -(np.asarray(x, dtype=float) + 2.0),
        sigma_tail_fn=lambda k: 2.0 ** -(k + 1.0),
        mu_tail_fn=mu_tail, w_sum_fn=w_sum,
        res_upper=math.pi ** 2 / 6.0 - 1.0 + 1e-12)
    fam.codim_closed_form = 2.0
    return fam


def _build_ex56(alpha=1.0, case=1):
    alpha = float(alpha)
    if not alpha > 0:
        raise InputError("ex5.6: alpha must be positive")
    if 2.0 ** min(alpha, 1.0) == 1.0:   # the length tail divides by 2^alpha - 1
        raise InputError(f"ex5.6: alpha {alpha} is too small: 2^alpha "
                         "rounds to 1")
    if case not in (1, 2):
        raise InputError("ex5.6: case must be 1 or 2")
    case = int(case)
    beta = 2.0 * alpha - 1.0   # mu decay exponent
    res_upper = w_sum_fn = None
    if case == 1:
        w_fn, w_sum_fn = _ones, _count
    else:
        def w_fn(x):
            return 2.0 ** np.asarray(x, dtype=float)
        res_upper = 1.0        # sum_{k>=1} 2^-k
    mu_tail_fn = lambda k: math.inf          # beta <= 0: infinite measure
    if beta > 0:
        mu_tail_fn = lambda k: 2.0 ** (-beta * k) / (1.0 - 2.0 ** -beta)
    fam = RayFamily(
        f"ex5.6", w_fn,
        mu_fn=lambda x: 2.0 ** (-beta * np.asarray(x, dtype=float)),
        params={"alpha": alpha, "case": case},
        sigma_fn=lambda x: 2.0 ** (-alpha * (np.asarray(x, dtype=float) + 1.0)),
        sigma_tail_fn=lambda k: 2.0 ** (-alpha * k) / (2.0 ** alpha - 1.0),
        mu_tail_fn=mu_tail_fn, w_sum_fn=w_sum_fn, res_upper=res_upper)
    fam.codim_closed_form = 2.0 - 1.0 / alpha
    return fam


def _build_codim3():
    fam = RayFamily(
        "codim3",
        w_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float) / 16.0,
        mu_fn=lambda x: 8.0 ** -np.asarray(x, dtype=float),
        sigma_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
        sigma_tail_fn=lambda k: 2.0 ** (1 - k),
        mu_tail_fn=lambda k: (8.0 / 7.0) * 8.0 ** -k)
    fam.codim_closed_form = 3.0
    return fam


class StarFamily(GraphFamily):
    """Hub 0 joined to the tip 2n of every 2-edge ray (2n-1, 2n), mu == 1.

    Joins weigh 2^-n, inner edges inner_w(n) over an integer array n;
    with_extra adds a vertex joined to every tip like the hub. window = N
    rays realized; the hub and the extra vertex leak 2^-N.
    Not locally finite in the limit (the hub meets every ray), so
    completeness dichotomies do not apply; these families exist to exhibit
    limit phenomena of the truncation sequence.
    """

    locally_finite = False

    def __init__(self, name, inner_w, window_cap, with_extra=False):
        super().__init__(name, {}, window_cap)
        self.inner_w = inner_w
        self.with_extra = with_extra

    def truncate(self, window: int) -> WeightedGraph:
        return self._window(window)

    def _build(self, n_rays: int) -> WeightedGraph:
        n = np.arange(1, n_rays + 1)
        tips = 2 * n
        join = np.ldexp(1.0, -n)         # 2^-n, exact
        blocks = [(np.zeros_like(tips), tips, join),
                  (tips - 1, tips, self.inner_w(n))]
        size = 2 * n_rays + 1
        leak = {0: math.ldexp(1.0, -n_rays)}
        if self.with_extra:
            blocks.append((np.full_like(tips, size), tips, join))
            leak[size] = leak[0]
            size += 1
        edges = np.concatenate([np.column_stack(b) for b in blocks])
        return WeightedGraph(size, edges, np.ones(size), leak=leak)

    def canonical_lengths(self, g: WeightedGraph):
        return sigma0(g)

    def extra_id(self, window: int) -> int:
        if not self.with_extra:
            raise InputError(f"{self.name} has no extra vertex")
        return 2 * int(window) + 1


# inner edge weights 1 - 2^-n, 4^n and 2^n, each exact in float64
def _build_a51():
    return StarFamily("a5.1", lambda n: 1.0 - np.ldexp(1.0, -n), 1000)


def _build_a53():
    return StarFamily("a5.3", lambda n: np.ldexp(1.0, 2 * n), 500,
                      with_extra=True)


def _build_a54():
    return StarFamily("a5.4", lambda n: np.ldexp(1.0, n), 1000)


def _build_unsupported(which):
    def build(**params):
        raise UnsupportedFamilyError(
            f"{which} requires an end-space model beyond single linear ends; "
            "not implemented")
    return build


REGISTRY = {
    "ex5.1": _build_ex51,
    "ex5.2": _build_ex52,
    "ex5.3a": _build_ex53a,
    "ex5.3": _build_ex53,
    "ex5.4": _build_ex54,
    "ex5.5": _build_ex55,
    "ex5.6": _build_ex56,
    "codim3": _build_codim3,
    "a5.1": _build_a51,
    "a5.3": _build_a53,
    "a5.4": _build_a54,
    "a5.2": _build_unsupported("a5.2"),
    "a5.5": _build_unsupported("a5.5"),
}


def build_family(name: str, params: dict | None = None) -> GraphFamily:
    try:
        build = REGISTRY[name]
    except KeyError:
        raise InputError(
            f"unknown family {name!r} (known: {sorted(REGISTRY)})") from None
    try:
        inspect.signature(build).bind(**(params or {}))  # keys checked first
        return build(**(params or {}))
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        names = ", ".join(inspect.signature(build).parameters) or "none"
        raise InputError(f"bad parameters for family {name!r}: {exc} "
                         f"(parameters: {names})") from exc


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


@dataclass(frozen=True)
class Golden:
    """The golden claims of one run, as data: the expected verdicts
    (report field -> value, a trailing "*" matches a prefix), then claims
    that compute something, each a function (fam, rep) -> [Check].
    Calling it checks one classification."""
    verdicts: dict
    claims: tuple = ()

    def __call__(self, fam, rep) -> list:
        out = _verdict_checks(rep, self.verdicts)
        for claim in self.claims:
            out += claim(fam, rep)
        return out


def _codim_claim(fam, rep):
    target, tol = fam.codim_closed_form, 0.05
    est = rep.codim
    if est is None:
        return [Check("codim", False, "missing", f"{target:+.4f}")]
    ok = abs(est.codim - target) <= tol
    return [Check("codim", ok, f"{est.codim:.4f}", f"{target:.4f} +- {tol}")]


def _inapplicable_claim(fam, rep):
    return [Check("completeness verdict inapplicable",
                  rep.completeness.startswith("inapplicable"),
                  rep.completeness, "inapplicable*")]


def _ex51_claims(fam, rep):
    ends = rep.capacity.per_end
    return [Check("two polar ends", len(ends) == 2 and
                  all(s.regime == "zero" for s in ends),
                  str([s.regime for s in ends]), "zero on both ends"),
            Check("witness fired", rep.witness is not None
                  and rep.witness.passed,
                  str(rep.witness and rep.witness.passed), "True")]


def _ex52_claims(fam, rep):
    sol = rep.lambda_solutions["plus"]
    return [Check("lambda solution increasing, not square-summable",
                  sol.increasing and sol.l2.verdict == "diverged",
                  f"increasing={sol.increasing}, l2={sol.l2.verdict}",
                  "increasing=True, l2=diverged"),
            Check("bounded solution criterion converges",
                  sol.criterion.verdict == "converged",
                  sol.criterion.verdict, "converged")]


def _ex53a_claims(fam, rep):
    sol = rep.lambda_solutions["plus"]
    alt = rep.boundary_alternative.verdict
    return [Check("lambda solution in maximal form domain",
                  sol.in_max_form_domain,
                  f"bounded={sol.bounded}, l2={sol.l2.verdict}, "
                  f"energy={sol.energy.verdict}", "all converged"),
            Check("boundary alternative separates the forms",
                  alt.startswith("forms differ"), alt, "forms differ*")]


def _ex53_claims(fam, rep):
    regimes = {s.end_label: s.regime for s in rep.capacity.per_end}
    return [Check("per-end regimes",
                  regimes == {"minus": "infinite", "plus": "positive-finite"},
                  str(regimes), "minus: infinite, plus: positive-finite")]


def _ex54_claims(fam, rep):
    est = rep.codim
    end = fam.ends()[0]
    exact = all(
        end.sigma_tail(x).value == 2.0 ** (1 - x) and
        abs(end.mu_tail(x).value - (2.0 ** (1 - x)) ** 2 / 3.0)
        <= 1e-12 * end.mu_tail(x).value
        for x in range(1, 31))
    return [Check("local slope = 2 (dyadic scaling)",
                  est is not None and abs(est.codim_local - 2.0) <= 0.01,
                  f"{est.codim_local:.6f}" if est else "missing",
                  "2 +- 0.01"),
            Check("r(x) = 2^(1-x), mu(B_r) = r^2/3 to 1e-12", exact,
                  "exact" if exact else "drift", "exact")]


def _ex55_claims(fam, rep):
    est = rep.codim
    if est is None:
        return [Check("codim ratios", False, "missing", "")]
    ratios = est.ratios[~np.isnan(est.ratios)]
    mono = bool(np.all(np.diff(ratios) > 0)) and bool(np.all(ratios <= 2.0))
    return [Check("pointwise ratios increase toward 2 from below", mono,
                  f"last={ratios[-1]:.4f}", "increasing, <= 2"),
            Check("local slope approaches 2",
                  est.codim_local >= 1.85 and est.codim_local <= 2.0,
                  f"{est.codim_local:.4f}", "in [1.85, 2]")]


def _codim3_claims(fam, rep):
    pt = codim_polarity_test(fam)
    bounds_ok = all(e.within_bound for e in pt.entries)
    return [Check("local slope = 3",
                  rep.codim is not None and
                  abs(rep.codim.codim_local - 3.0) <= 1e-9,
                  f"{rep.codim.codim_local:.9f}" if rep.codim else "missing",
                  "3 +- 1e-9"),
            Check("cutoff sequence under theorem bound, below 1e-3",
                  pt.fires and bounds_ok,
                  f"final={pt.final_value:.3e}, "
                  f"bounds={'ok' if bounds_ok else 'violated'}",
                  "decreasing below 1e-3 within bounds")]


def _star_metric(fam, window):
    return PathMetric(lengths_for(fam.truncate(window), "canonical", fam))


def _a51_claims(fam, rep):
    sizes = []
    ok_d = True
    for win in (8, 16, 32):
        m = _star_metric(fam, win)
        ok_d = ok_d and all(m.distance(0, 2 * n) == 1.0
                            for n in range(1, win + 1))
        sizes.append(len(m.ball(0, 1.0)))
    return [Check("d(hub, ray tip) == 1 exactly", ok_d, str(ok_d), "True"),
            Check("B_1(hub) = window + 1, growing",
                  sizes == [9, 17, 33], str(sizes), "[9, 17, 33]")]


def _a53_claims(fam, rep):
    wins = (8, 16, 32)
    ds = [_star_metric(fam, w).distance(0, fam.extra_id(w)) for w in wins]
    ok = all(d <= 2.0 * 2.0 ** -w * 1.0001 for d, w in zip(ds, wins))
    return [Check("d(hub, extra) <= 2^(1-window) -> 0",
                  ok and ds[2] < ds[1] < ds[0],
                  f"{ds[0]:.3e}, {ds[1]:.3e}, {ds[2]:.3e}",
                  "decreasing, <= 2*2^-window")]


def _a54_claims(fam, rep):
    d_far = _star_metric(fam, 40).distance(0, 80)   # tip of ray 40
    sizes = [len(_star_metric(fam, win).ball(0, 0.25)) for win in (8, 16, 32)]
    return [Check("d(hub, tip of ray n) ~ 2^(-n/2) -> 0",
                  d_far <= 2.0 ** -20 * 1.0001, f"{d_far:.3e}", "<= 2^-20"),
            Check("B_1/4(hub) grows with the window",
                  sizes[0] < sizes[1] < sizes[2], str(sizes),
                  "strictly increasing")]


_POLAR = {"polarity": "polar", "markov_unique": "yes",
          "boundary_regime": "zero"}
_NON_POLAR = {"polarity": "non-polar", "markov_unique": "no",
              "boundary_regime": "positive-finite"}
# the codim target of every ex5.6 run is its family's closed form 2 - 1/alpha
_EX56_POLAR = Golden(_POLAR, (_codim_claim,))
_EX56_NON_POLAR = Golden(_NON_POLAR, (_codim_claim,))

GOLDEN_RUNS = [
    ("ex5.1", "ex5.1", {}, Golden(
        {"completeness": "incomplete-evidence", "polarity": "polar",
         "markov_unique": "yes", "esa": "no", "boundary_regime": "zero"},
        (_ex51_claims,))),
    ("ex5.2", "ex5.2", {}, Golden(
        {"completeness": "incomplete-evidence",
         "boundary_regime": "infinite", "markov_unique": "yes",
         "esa": "yes*"}, (_ex52_claims,))),
    ("ex5.3a", "ex5.3a", {}, Golden(
        {"boundary_regime": "positive-finite", "polarity": "non-polar",
         "markov_unique": "no", "esa": "no"}, (_ex53a_claims,))),
    ("ex5.3", "ex5.3", {}, Golden(
        {"boundary_regime": "infinite", "markov_unique": "no"},
        (_ex53_claims,))),
    ("ex5.4", "ex5.4", {}, Golden(
        {"completeness": "incomplete-evidence", **_POLAR}, (_ex54_claims,))),
    ("ex5.5", "ex5.5", {}, Golden(
        {"boundary_regime": "positive-finite", "polarity": "non-polar",
         "markov_unique": "no"}, (_ex55_claims,))),
    ("ex5.6-a0.75-case1", "ex5.6", {"alpha": 0.75, "case": 1}, _EX56_POLAR),
    ("ex5.6-a1-case1", "ex5.6", {"alpha": 1.0, "case": 1}, _EX56_POLAR),
    ("ex5.6-a1-case2", "ex5.6", {"alpha": 1.0, "case": 2}, _EX56_NON_POLAR),
    ("ex5.6-a2-case1", "ex5.6", {"alpha": 2.0, "case": 1}, _EX56_POLAR),
    ("ex5.6-a2-case2", "ex5.6", {"alpha": 2.0, "case": 2}, _EX56_NON_POLAR),
    ("codim3", "codim3", {}, Golden(_POLAR, (_codim3_claims,))),
    ("a5.1", "a5.1", {}, Golden({}, (_inapplicable_claim, _a51_claims))),
    ("a5.3", "a5.3", {}, Golden({}, (_inapplicable_claim, _a53_claims))),
    ("a5.4", "a5.4", {}, Golden({}, (_inapplicable_claim, _a54_claims))),
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
        # compact: without an indent, json encodes with its C encoder
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls(**json.loads(text))


def _write_atomic(path: str, text: str) -> None:
    """Write text, newline-terminated, to a temporary file that then
    replaces path, so readers never see a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    os.replace(tmp, path)


def write_record_atomic(record: RunRecord, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    safe = record.label.replace("/", "_")
    path = os.path.join(out_dir, f"{safe}.json")
    _write_atomic(path, record.to_json())
    return path


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@dataclass
class GalleryResult:
    records: list
    failed_checks: list          # (label, Check)
    numerical_failures: list     # (label, message)
    exit_code: int
    # (label, message) per run stopped by an InputError
    input_failures: list = dataclasses.field(default_factory=list)

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

    An InputError or NumericalError inside one run is recorded in that
    run's record and the gallery carries on. Exit code semantics: 0 all
    claims hold, 1 golden mismatch, 2 input error in some run, 3 numerical
    failure in some run (2 wins over 3). An unknown selection raises
    InputError before any run.
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
    records, failed, numfail, inputfail = [], [], [], []
    for label, name, params, checker in runs:
        started = _now()
        error = None
        rep_dict = None
        checks = []
        try:
            fam = build_family(name, params)
            rep = classify(fam, "canonical", bud)
            rep_dict = rep.to_dict()
            checks = checker(fam, rep)
        except NumericalError as exc:
            error = str(exc)
            numfail.append((label, error))
        except InputError as exc:
            error = f"input error: {exc}"
            inputfail.append((label, str(exc)))
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
    code = 2 if inputfail else 3 if numfail else 1 if failed else 0
    return GalleryResult(records, failed, numfail, code, inputfail)
