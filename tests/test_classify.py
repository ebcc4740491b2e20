import math

import numpy as np
import pytest

from iglab import completeness
import iglab.classify as classify_module
from iglab.classify import (BUDGETS, Budget, _ray_lambda_solve, classify,
                            deg_ball_boundedness, harmonic_witness_check,
                            lambda_solve, resolve_budget)
from iglab import potential
from iglab.completeness import _ball_scan, hopf_rinow_report
from iglab.errors import InputError, NumericalError
from iglab.gallery import GOLDEN_RUNS, build_family
from iglab.graphs import End, GraphFamily, LineFamily, RayFamily


def unit_ray():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return RayFamily("unitray", w_fn=ones, mu_fn=ones,
                     sigma_tail_fn=lambda k: math.inf,
                     mu_tail_fn=lambda k: math.inf)


# -- budgets -------------------------------------------------------------------

def test_resolve_budget():
    assert resolve_budget("quick").name == "quick"
    assert resolve_budget("standard").codim_depth == 40
    custom = Budget("tiny", 8, 4, 64, 10, 6)
    assert resolve_budget(custom) is custom
    with pytest.raises(InputError):
        resolve_budget("huge")


def test_budget_table_is_sane():
    for name, b in BUDGETS.items():
        assert b.name == name
        assert b.analytic_tail_max >= b.solver_tail_max


# -- lambda recursion -----------------------------------------------------------

def test_lambda_recursion_unit_ray_exact():
    # w = mu = 1, lambda = 1: u(x+1) = u(x) + sum_{y<=x} u(y) gives the
    # odd-indexed Fibonacci numbers
    sols = lambda_solve(unit_ray(), window=8)
    u = sols["plus"].u
    assert u.tolist() == [1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0, 610.0]
    assert sols["plus"].residual == 0.0
    assert sols["plus"].increasing
    assert sols["plus"].bounded == "unbounded"
    assert not sols["plus"].in_max_form_domain


def test_lambda_residual_small_across_gallery():
    for name in ("ex5.2", "ex5.3a"):
        sols = lambda_solve(build_family(name), window=200)
        for lab, sol in sols.items():
            assert sol.residual <= 1e-12, (name, lab)


def test_lambda_ex53a_in_max_form_domain():
    (sol,) = lambda_solve(build_family("ex5.3a"), window=200).values()
    assert sol.bounded == "bounded"
    assert sol.criterion.verdict == "converged"
    assert sol.l2.verdict == "converged"
    assert sol.energy.verdict == "converged"
    assert sol.in_max_form_domain
    d = sol.to_dict()
    assert d["in_max_form_domain"] is True and d["lambda"] == 1.0


def test_lambda_ex52_unbounded_mass():
    (sol,) = lambda_solve(build_family("ex5.2"), window=200).values()
    assert sol.increasing
    assert sol.bounded == "bounded"          # sum (sum mu)/w converges
    assert sol.l2.verdict == "diverged"      # infinite measure
    assert not sol.in_max_form_domain


@pytest.mark.parametrize("window", [b.lambda_window for b in BUDGETS.values()])
def test_lambda_solve_is_inconclusive_on_a_harmonic_criterion(window):
    # mu = 1, w = (x+1)^2: the criterion sum (x+1) / (x+1)^2 diverges too
    # slowly to be read as diverged, and u does not plateau
    ray = RayFamily("harmonic-criterion",
                    w_fn=lambda x: (np.asarray(x, dtype=float) + 1.0) ** 2,
                    mu_fn=lambda x: np.ones(np.shape(x)),
                    sigma_tail_fn=lambda k: math.inf,
                    mu_tail_fn=lambda k: math.inf)
    (sol,) = lambda_solve(ray, window).values()
    assert sol.criterion.verdict == "inconclusive"
    assert sol.bounded == "inconclusive"
    assert not sol.in_max_form_domain


def test_lambda_solve_on_line_family_splits():
    sols = lambda_solve(build_family("ex5.3"), window=60)
    assert set(sols) == {"minus", "plus"}
    assert sols["plus"].bounded == "bounded"


def scalar_lambda_loops(w_fn, mu_fn, window):
    """The recursion and its residual as loops over numpy scalars, cut
    before the first x where u, u^2 mu or w (du)^2 is not finite."""
    xs = np.arange(window, dtype=float)
    w = np.asarray(w_fn(xs[:-1]), dtype=float)
    mu = np.asarray(mu_fn(xs), dtype=float)
    u = np.empty(window)
    u[0] = 1.0
    s = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for x in range(window - 1):
            s += u[x] * mu[x]
            u[x + 1] = u[x] + 1.0 / w[x] * s
        for x in range(window):
            du = u[x] - u[x - 1] if x else 0.0
            if not (np.isfinite(u[x]) and np.isfinite(u[x] * u[x] * mu[x])
                    and (x == 0 or np.isfinite(w[x - 1] * du * du))):
                window = x
                u = u[:window]
                break
        res = 0.0
        scale = max(1.0, float(np.max(np.abs(u))))
        um = u * mu[:window]
        for x in range(window - 1):
            rhs = math.fsum(um[:x + 1]) / w[x]
            res = max(res, abs(u[x + 1] - u[x] - rhs))
    return u, res / scale


def rule_arrays(w_fn, mu_fn, window):
    """w on the edges 0..window-2 and mu on the vertices 0..window-1, the
    arrays _ray_lambda_solve takes."""
    xs = np.arange(window, dtype=float)
    return (np.asarray(w_fn(xs[:-1]), dtype=float),
            np.asarray(mu_fn(xs), dtype=float))


def test_lambda_solve_matches_the_scalar_loops():
    rays = [(end.w_fn, end.mu_fn) for _label, name, params, _check
            in GOLDEN_RUNS for end in build_family(name, params).ends()]
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    # a zero weight gives inf and an inf weight a flat step of infinite
    # energy, never an error: both cut the recursion at x = 4; so does ex5.6
    # alpha = 0.3, whose u^2 mu overflows at x = 51
    rays += [(lambda x: np.where(np.asarray(x) == 3, 0.0, 1.0), ones),
             (lambda x: np.where(np.asarray(x) == 3, np.inf, 1.0), ones),
             *[(end.w_fn, end.mu_fn) for end in
               build_family("ex5.6", {"alpha": 0.3}).ends()]]
    for w_fn, mu_fn in rays:
        for window in (40, 200):
            u, res = scalar_lambda_loops(w_fn, mu_fn, window)
            sol = _ray_lambda_solve(*rule_arrays(w_fn, mu_fn, window))
            assert sol.window == u.size
            assert sol.u.tobytes() == u.tobytes()
            assert float(sol.residual).hex() == float(res).hex()


def test_lambda_solve_validation():
    with pytest.raises(InputError):
        lambda_solve(build_family("a5.1"))
    # w(0) = 0 sends u(1) to inf: no two vertices to judge the series on
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(NumericalError, match="x = 1"):
        _ray_lambda_solve(*rule_arrays(zero, lambda x: zero(x) + 1.0, 40))


def unit_line():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    end = End(ones, ones, ones)
    return LineFamily("unitline", end, end)


@pytest.mark.parametrize("window", [1, 0, -3, -5])
def test_lambda_solve_and_witness_reject_shallow_windows(window):
    # one vertex is no evidence: at window 1 the witness's single term
    # x = 0 read as a converged series, so it passed on the unit line,
    # whose Laplacian is bounded; lower windows raised IndexError
    with pytest.raises(InputError, match="needs window >= 2"):
        lambda_solve(unit_ray(), window=window)
    with pytest.raises(InputError, match="needs window >= 2"):
        harmonic_witness_check(unit_line(), window=window)


# -- harmonic witness -------------------------------------------------------------

def test_witness_ex51():
    rep = harmonic_witness_check(build_family("ex5.1"), window=200)
    assert rep.passed
    assert rep.interior_residual <= 1e-12
    assert rep.precondition.verdict == "converged"
    assert rep.l2.verdict == "converged"
    # window energies are exactly 2N for the integer ramp h(x) = x
    assert rep.energy_per_window == [(8, 16.0), (16, 32.0), (32, 64.0),
                                     (64, 128.0)]


def test_witness_needs_a_line():
    with pytest.raises(InputError, match="lives on a line family"):
        harmonic_witness_check(unit_ray())


def test_witness_does_not_fire_on_ex53():
    # on ex5.3 the precondition sum x^2 sqrt(mu) diverges (mu grows on the
    # quartic side), so the witness refuses to certify anything
    with pytest.raises(InputError, match="precondition"):
        harmonic_witness_check(build_family("ex5.3"), window=120)


# -- degree/ball evidence ----------------------------------------------------------

def test_deg_ball_ex54_balls_are_finite():
    # every ball of radius < 2 on ex5.4 is a finite vertex set, so the max
    # degree per ball stabilizes even though Deg(x) = 4^x is unbounded
    rep = deg_ball_boundedness(build_family("ex5.4"), "canonical",
                               n_max=256)
    assert rep.bounded_per_ball
    assert len(rep.radii) == 4
    big = max(rep.radii)
    assert rep.stable[big]
    assert rep.max_deg[big][-1] == 4.0 ** 7    # ball {0..7}, Deg(7)
    assert rep.ball_sizes[big][-1] == 8
    d = rep.to_dict()
    assert set(d["max_deg"]) == set(d["stable"])


def test_deg_ball_star_grows():
    # each doubling of the window adds rays whose tips land inside the
    # fixed radii, so the ball sizes never stabilize
    rep = deg_ball_boundedness(build_family("a5.1"), "sigma0", n_max=64)
    assert not rep.bounded_per_ball
    assert not rep.stable[max(rep.radii)]


@pytest.mark.parametrize("label", [run[0] for run in GOLDEN_RUNS])
def test_classify_runs_no_ball_scan(label, monkeypatch):
    # completeness is decided by the ends alone: classify runs no ball
    # scan on any family at any budget, and its verdict is the one the
    # Hopf-Rinow report, which still scans, gives at the budget's n_max
    _, name, params, _ = next(run for run in GOLDEN_RUNS if run[0] == label)
    scans = []

    def counted_scan(*args):
        scans.append(args)
        return _ball_scan(*args)

    for mod in (classify_module, completeness):
        monkeypatch.setattr(mod, "_ball_scan", counted_scan)
    for budget, bud in BUDGETS.items():
        fam = build_family(name, params)
        scans.clear()
        rep = classify(fam, budget=budget)
        assert scans == [], budget
        assert "deg_ball" not in rep.to_dict()
        hopf = hopf_rinow_report(fam, n_max=bud.hopf_n_max)
        assert rep.completeness == hopf.verdict, budget


LOCALLY_FINITE = [label for label, name, params, _ in GOLDEN_RUNS
                  if build_family(name, params).locally_finite]


@pytest.mark.parametrize("label", LOCALLY_FINITE)
def test_deg_ball_and_hopf_share_the_ball_scan(label, monkeypatch):
    # the two reports that still scan ask for the same ball scan, at the
    # budget's hopf_n_max, and read one table from it: the deg-ball radii,
    # the even eighths of the eccentricity, are bit-equal to its quarters,
    # and both count the same balls
    _, name, params, _ = next(run for run in GOLDEN_RUNS if run[0] == label)
    scans = []

    def counted_scan(*args):
        scans.append(args[1:])
        return _ball_scan(*args)

    for mod in (classify_module, completeness):
        monkeypatch.setattr(mod, "_ball_scan", counted_scan)
    for budget in ("quick", "standard"):
        n_max = BUDGETS[budget].hopf_n_max
        fam = build_family(name, params)
        scans.clear()
        hopf = hopf_rinow_report(fam, n_max=n_max)
        deg = deg_ball_boundedness(fam, n_max=n_max)
        assert scans == [("canonical", n_max)] * 2, budget
        assert deg.radii == [hopf.radii[-1] * j / 4 for j in range(1, 5)]
        assert all(deg.ball_sizes[r] == hopf.ball_sizes[r] for r in deg.radii)


@pytest.mark.parametrize("label", ["a5.1", "a5.3", "a5.4"])
def test_star_classify_builds_no_graph(label, monkeypatch):
    # a star is not locally finite, so its completeness is inapplicable
    # and classify realizes no window at any budget
    calls = []
    build = GraphFamily._window

    def counted_window(self, window):
        calls.append(window)
        return build(self, window)

    monkeypatch.setattr(GraphFamily, "_window", counted_window)
    for budget in ("quick", "standard", "deep"):
        rep = classify(build_family(label), budget=budget)
        assert calls == [] and rep.completeness == completeness.INAPPLICABLE


def test_classify_refuses_a_sigma_other_than_canonical():
    # no other sigma has certified end lengths; a star reads no sigma at
    # all, so the refusal must not wait for one
    with pytest.raises(InputError, match="canonical"):
        classify(build_family("a5.1"), "bogus")
    with pytest.raises(InputError, match="canonical"):
        classify(build_family("ex5.4"), "sigma0")
    assert classify(build_family("ex5.4"), "canonical",
                    "quick").to_dict()["sigma"] == "canonical"


@pytest.mark.parametrize("name, params", [
    ("ex5.1", {}), ("ex5.6", {"alpha": 0.75, "case": 1})])
def test_ball_scans_stop_before_lengths_underflow(name, params):
    # regression: at the deep budget's n_max the float-range cap must also
    # cover the canonical lengths, which underflow to 0 before w and mu do
    fam = build_family(name, params)
    n_max = BUDGETS["deep"].hopf_n_max
    hopf = hopf_rinow_report(fam, n_max=n_max)
    deg = deg_ball_boundedness(fam, n_max=n_max)
    assert hopf.windows[-1] == deg.windows[-1] == fam.max_window(n_max)


# -- combined classification --------------------------------------------------------

@pytest.mark.parametrize("name, ladders, ramps, solves", [
    ("ex5.1", 1, 21, 1), ("ex5.3", 2, 9, 2)])
def test_classify_does_per_end_work_once_per_distinct_end(
        name, ladders, ramps, solves, monkeypatch):
    # ex5.1's two ends are one End, each wrapped on its own here as a
    # tracer wraps them; ex5.3's ends differ: its minus end has infinite
    # measure (no ladder, no ramp), so its plus end sweeps twice, open and
    # grounded, and its ramp grid stops at 1024, where w overflows
    calls = []
    for module, fn in ((potential, "_end_ladder"), (potential, "_ramp_upper"),
                       (classify_module, "_ray_lambda_solve")):
        monkeypatch.setattr(module, fn, lambda *args, orig=getattr(
            module, fn), fn=fn: calls.append(fn) or orig(*args))
    fam = build_family(name)
    for end in fam.ends():
        end.w_fn, end.mu_fn = (lambda x, f=end.w_fn: f(x),
                               lambda x, f=end.mu_fn: f(x))
    classify(fam, budget="standard")
    assert [calls.count(fn) for fn in ("_end_ladder", "_ramp_upper",
                                       "_ray_lambda_solve")] == \
        [ladders, ramps, solves]


def test_a_resistance_bound_decides_an_end_with_no_finite_upper_bound():
    # w leaves float range at index 2, so no tail gets a ladder value and
    # the first ramp bound is inf; the declared tail resistance still makes
    # the end positive-finite, as the regime rules say
    mu = lambda x: 2.0 ** -np.asarray(x, dtype=float)
    fam = RayFamily("huge-w", lambda x: 1e300 ** np.asarray(x, dtype=float),
                    mu, sigma_fn=mu, sigma_tail_fn=lambda k: 2.0 ** (1 - k),
                    mu_tail_fn=lambda k: 2.0 ** (1 - k), res_upper=1e-300)
    assert fam.max_window(1 << 20) == 2
    rep = classify(fam, budget="standard")
    (seq,) = rep.capacity.per_end
    assert [e.certified_upper for e in seq.entries] == [math.inf]
    assert seq.regime == "positive-finite"
    assert rep.markov_unique.value == "no"


@pytest.fixture(scope="module")
def reports():
    return {name: classify(build_family(name), budget="standard")
            for name in ("ex5.1", "ex5.2", "ex5.3a", "ex5.3", "ex5.4")}


def test_verdict_table(reports):
    mu = {k: r.markov_unique.value for k, r in reports.items()}
    esa = {k: r.esa.value for k, r in reports.items()}
    assert mu == {"ex5.1": "yes", "ex5.2": "yes", "ex5.3a": "no",
                  "ex5.3": "no", "ex5.4": "yes"}
    assert esa["ex5.1"] == "no"
    assert esa["ex5.2"] == "yes (evidence)"
    assert esa["ex5.3a"] == "no"
    assert esa["ex5.4"] == "inconclusive"


def test_polarity_column(reports):
    assert reports["ex5.1"].polarity == "polar"
    assert reports["ex5.4"].polarity == "polar"
    assert reports["ex5.3a"].polarity == "non-polar"


def test_verdicts_carry_bases(reports):
    for name, rep in reports.items():
        assert rep.markov_unique.basis, name
        assert rep.esa.basis, name


def test_esa_implies_markov_unique_consistency(reports):
    for name, rep in reports.items():
        assert rep.consistency, name
        assert all(ok for _, ok in rep.consistency), (name, rep.consistency)
        if rep.esa.value.startswith("yes"):
            assert rep.markov_unique.value == "yes", name


def test_completeness_column(reports):
    for name in ("ex5.1", "ex5.2", "ex5.3a", "ex5.4"):
        assert reports[name].completeness == "incomplete-evidence", name


def test_locally_finite_flag(reports):
    assert all(r.locally_finite for r in reports.values())
    star = classify(build_family("a5.1"), budget="quick")
    assert not star.locally_finite
    assert star.completeness == "inapplicable (not locally finite)"


def test_report_to_dict(reports):
    d = reports["ex5.3a"].to_dict()
    assert d["markov_unique"]["value"] == "no"
    assert d["esa"]["value"] == "no"
    assert d["capacity"]["boundary_regime"] == "positive-finite"
    assert d["lambda"]["plus"]["in_max_form_domain"] is True
    assert "domain_note" in d
    assert d["boundary_alternative"]["verdict"].startswith("forms differ")


def test_witness_report_in_ex51(reports):
    rep = reports["ex5.1"]
    assert rep.witness is not None and rep.witness.passed
    assert rep.esa.basis.startswith("harmonic coordinate")


# -- the rules' float range -----------------------------------------------------------

LINEAR_RUNS = [(label, name, params) for label, name, params, _ in GOLDEN_RUNS
               if build_family(name, params).ends()]


def finite_positive(values) -> bool:
    return bool(np.all(np.isfinite(values) & (values > 0.0)))


@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("label, name, params", LINEAR_RUNS,
                         ids=[run[0] for run in LINEAR_RUNS])
def test_lambda_and_witness_keep_only_valid_rule_values(label, name, params,
                                                        budget):
    fam = build_family(name, params)
    window = BUDGETS[budget].lambda_window
    chains = fam.chain(window - 1)
    sols = lambda_solve(fam, window)
    for end, c in zip(fam.ends(), chains):
        kept = sols[end.label].window
        assert finite_positive(c.mu[:kept]), end.label
        assert finite_positive(c.w[:kept - 1]), end.label
    if len(chains) == 2:
        try:
            rep = harmonic_witness_check(fam, window)
        except InputError:          # ex5.3: the precondition diverges
            return
        minus, plus = chains
        assert finite_positive(plus.mu[:rep.window])
        assert finite_positive(minus.mu[1:rep.window])
        assert finite_positive(plus.w[:rep.window - 1])
        assert finite_positive(minus.w[:rep.window - 1])


@pytest.mark.parametrize("name, params", [
    ("codim3", {}), ("ex5.6", {"alpha": 2.0, "case": 1}),
    ("ex5.6", {"alpha": 2.0, "case": 2})])
def test_lambda_stops_where_mu_underflows(name, params):
    # mu = 8^-x underflows to 0.0 at x = 359; the deep budget's lambda
    # window 400 kept the 41 vertices of zero measure
    fam = build_family(name, params)
    (c,) = fam.chain(399)
    assert c.mu[358] > 0.0 and c.mu[359] == 0.0
    assert lambda_solve(fam, 400)["plus"].window == 359


def test_witness_stops_where_mu_underflows():
    # ex5.1's mu(x) = 2^-|x| (1 + x^2)^-4 underflows to 0.0 before |x| = 1000
    fam = build_family("ex5.1")
    _, plus = fam.chain(1999)
    first_zero = int(np.argmin(plus.mu > 0.0))
    assert 0 < first_zero < 1000
    rep = harmonic_witness_check(fam, window=2000)
    assert rep.window == first_zero
    assert rep.passed


# -- completeness needs an intrinsic metric -------------------------------------------

def geometric_ray_with_unit_lengths():
    """ex5.3a's rules (w = 2^x, mu = 2^-x, capacity strictly between 0
    and infinity) with sigma = 1: infinite total length, but not
    intrinsic, since (w(0) + w(1)) / mu(1) = 6 at vertex 1."""
    return RayFamily("geometric-unit-lengths",
                     w_fn=lambda x: 2.0 ** np.asarray(x, dtype=float),
                     mu_fn=lambda x: 2.0 ** -np.asarray(x, dtype=float),
                     sigma_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     sigma_tail_fn=lambda k: math.inf,
                     mu_tail_fn=lambda k: 2.0 ** (1 - k), res_upper=1.0)


UNIT_END = dict(
    w_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    mu_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    sigma_fn=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0 ** -0.5),
    sigma_tail_fn=lambda k: math.inf, mu_tail_fn=lambda k: math.inf)


def intrinsic_unit_ray():
    return RayFamily("intrinsic-unit-ray", **UNIT_END)


def intrinsic_unit_line():
    end = End(**UNIT_END)
    return LineFamily("intrinsic-unit-line", end, end)


@pytest.mark.parametrize("budget", list(BUDGETS))
def test_a_non_intrinsic_complete_metric_decides_nothing(budget):
    # the completeness evidence holds (stable balls, infinite length), but
    # the first theorem needs an intrinsic metric: Markov uniqueness must
    # come from the positive tail capacity instead, as on ex5.3a; the
    # record names the vertex, as the completeness report does
    rep = classify(geometric_ray_with_unit_lengths(), budget=budget)
    assert rep.completeness == "inconclusive"
    assert rep.capacity.boundary_regime == "positive-finite"
    assert rep.markov_unique.value == "no"
    assert rep.esa.value == "no"
    for notes in (rep.to_dict()["notes"],
                  hopf_rinow_report(geometric_ray_with_unit_lengths()).notes):
        assert any("not strongly intrinsic at vertex 1 of end plus" in note
                   for note in notes), notes


@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("make", [intrinsic_unit_ray, intrinsic_unit_line])
def test_complete_intrinsic_unit_chains_are_unique(make, budget):
    # the paper's first theorem: complete for an intrinsic metric and
    # locally finite => Markov unique; with degrees bounded on balls, ESA
    rep = classify(make(), budget=budget)
    assert rep.completeness == "complete-evidence"
    assert rep.markov_unique.value == "yes"
    assert rep.esa.value == "yes"


def doubly_exponential_measure_ray():
    """w = 1, mu(k) = 2^(2^k): the canonical sigma_0 lengths are all 1, so
    the ray is infinitely long, and mu leaves float range at k = 10, so
    max_window(64) is 10 and a ball scan sees only windows 8 and 10."""
    return RayFamily("doubly-exponential-measure",
                     w_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     mu_fn=lambda x: 2.0 ** 2.0 ** np.asarray(x, dtype=float),
                     sigma_tail_fn=lambda k: math.inf,
                     mu_tail_fn=lambda k: math.inf)


def test_completeness_does_not_wait_for_balls_to_stabilize():
    # two windows cannot show a ball stabilizing, but an end certified
    # infinitely long already makes every ball finite: the ray is complete
    fam = doubly_exponential_measure_ray()
    assert fam.max_window(64) == 10
    hopf = hopf_rinow_report(fam, n_max=64)
    assert hopf.windows == [8, 10]
    assert not any(hopf.stabilized.values())
    assert hopf.verdict == "complete-evidence"
    for budget in BUDGETS:
        rep = classify(doubly_exponential_measure_ray(), budget=budget)
        assert rep.completeness == "complete-evidence", budget
        assert rep.esa.value == "yes", budget
        assert rep.markov_unique.value == "yes", budget
