import math

import numpy as np
import pytest

from iglab.classify import (BUDGETS, Budget, classify,
                            deg_ball_boundedness, harmonic_witness_check,
                            lambda_solve, resolve_budget)
from iglab.completeness import hopf_rinow_report
from iglab.errors import InputError
from iglab.gallery import build_family
from iglab.graphs import RayFamily


def unit_ray():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return RayFamily("unitray", w_fn=ones, mu_fn=ones,
                     sigma_rem_fn=lambda d: math.inf, mu_total=math.inf)


# -- budgets -------------------------------------------------------------------

def test_resolve_budget():
    assert resolve_budget("quick").name == "quick"
    assert resolve_budget("standard").codim_depth == 40
    custom = Budget("tiny", 8, 4, 16, 64, 10, 6, 8)
    assert resolve_budget(custom) is custom
    with pytest.raises(InputError):
        resolve_budget("huge")


def test_budget_table_is_sane():
    for name, b in BUDGETS.items():
        assert b.name == name
        assert b.solver_tail_max < b.outer_cap
        assert b.analytic_tail_max >= b.solver_tail_max


# -- lambda recursion -----------------------------------------------------------

def test_lambda_recursion_unit_ray_exact():
    # w = mu = 1, lambda = 1: u(x+1) = u(x) + sum_{y<=x} u(y) gives the
    # odd-indexed Fibonacci numbers
    sols = lambda_solve(unit_ray(), lam=1.0, window=8)
    u = sols["plus"].u
    assert u.tolist() == [1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0, 610.0]
    assert sols["plus"].residual == 0.0
    assert sols["plus"].increasing
    assert sols["plus"].bounded == "unbounded"
    assert not sols["plus"].in_max_form_domain


def test_lambda_residual_small_across_gallery():
    for name in ("ex5.2", "ex5.3a"):
        sols = lambda_solve(build_family(name), lam=1.0, window=200)
        for lab, sol in sols.items():
            assert sol.residual <= 1e-12, (name, lab)


def test_lambda_ex53a_in_max_form_domain():
    (sol,) = lambda_solve(build_family("ex5.3a"), lam=1.0,
                          window=200).values()
    assert sol.bounded == "bounded"
    assert sol.criterion.verdict == "converged"
    assert sol.l2.verdict == "converged"
    assert sol.energy.verdict == "converged"
    assert sol.in_max_form_domain
    d = sol.to_dict()
    assert d["in_max_form_domain"] is True and d["lambda"] == 1.0


def test_lambda_ex52_unbounded_mass():
    (sol,) = lambda_solve(build_family("ex5.2"), lam=1.0,
                          window=200).values()
    assert sol.increasing
    assert sol.bounded == "bounded"          # sum (sum mu)/w converges
    assert sol.l2.verdict == "diverged"      # infinite measure
    assert not sol.in_max_form_domain


def test_lambda_solve_on_line_family_splits():
    sols = lambda_solve(build_family("ex5.3"), lam=1.0, window=60)
    assert set(sols) == {"minus", "plus"}
    assert sols["plus"].bounded == "bounded"


def test_lambda_solve_validation():
    with pytest.raises(InputError):
        lambda_solve(unit_ray(), lam=0.0)
    with pytest.raises(InputError):
        lambda_solve(build_family("a5.1"))


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


@pytest.mark.parametrize("name", ["ex5.3a", "ex5.1", "a5.1"])
def test_deg_ball_and_hopf_share_the_ball_scan(name):
    # the deg-ball windows are a prefix of the hopf windows, its radii
    # ecc*j/4 are the even hopf radii ecc*2j/8, and both count the same balls
    fam = build_family(name)
    bud = BUDGETS["standard"]
    hopf = hopf_rinow_report(fam, n_max=bud.hopf_n_max)
    deg = deg_ball_boundedness(fam, n_max=bud.degball_n_max)
    assert hopf.windows[:len(deg.windows)] == deg.windows
    assert deg.radii == hopf.radii[1::2]
    for r in deg.radii:
        assert deg.ball_sizes[r] == hopf.ball_sizes[r][:len(deg.windows)]


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
