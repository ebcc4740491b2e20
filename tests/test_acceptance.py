"""Acceptance gate: one test per numbered claim, run at the stated
tolerances against independently derived oracles.

Every criterion registers a PASS/FAIL line in the terminal summary (see
conftest.pytest_terminal_summary), so a plain ``pytest`` run ends with one
line per criterion even when earlier tests abort.
"""

import math
import time

import numpy as np

from conftest import (ACCEPTANCE_RESULTS, exhaustive_distances,
                      lstsq_capacity, make_random_graph, random_values)
from iglab.classify import classify, harmonic_witness_check, lambda_solve
from iglab.completeness import lengths_for
from iglab.forms import (VertexFunction, caccioppoli_check, cutoff_eta,
                         energy, gradient_sq_all, green_identity_check,
                         leibniz_check)
from iglab.gallery import GOLDEN_RUNS, build_family, run_gallery
from iglab.graphs import WeightedGraph
from iglab.metrics import (PathMetric, sigma0, sigma1,
                           strongly_intrinsic_check)
from iglab.potential import (boundary_capacity, codim_polarity_test,
                             equilibrium, minkowski_samples)

STANDARD_CAP = dict(solver_tail_max=128, analytic_tail_max=1 << 22)

for _num in range(1, 12):
    ACCEPTANCE_RESULTS.setdefault(_num, (False, "did not run"))


def record(num, ok, detail):
    ACCEPTANCE_RESULTS[num] = (bool(ok), detail)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dyadic_radii_and_measure():
    est = minkowski_samples(build_family("ex5.4"), depth=30)
    radii_exact = bool(np.array_equal(est.r, 2.0 ** (1.0 - est.xs)))
    mu_err = float(np.max(np.abs(est.mu_ball / (est.r ** 2 / 3.0) - 1.0)))
    # ln mu / ln r as a pointwise ratio of increments between the two
    # deepest samples; the raw quotient at a single sample carries the
    # -ln(3)/ln(r) offset and converges only like 1/x
    slope30 = float(est.local_slopes[-1])
    ok = radii_exact and mu_err <= 1e-12 and abs(slope30 - 2.0) <= 0.01
    record(1, ok, f"r dyadic-exact={radii_exact}, mu rel err {mu_err:.2e}, "
           f"slope at x=30: {slope30} (raw quotient {est.ratios[-1]:.4f})")


def test_criterion_02_codim_alpha_sweep():
    gaps = {}
    for alpha in (0.75, 1.0, 2.0):
        fam = build_family("ex5.6", {"alpha": alpha, "case": 1})
        est = minkowski_samples(fam, depth=40)
        gaps[alpha] = abs(est.codim - (2.0 - 1.0 / alpha))
    ok = all(gap <= 0.05 for gap in gaps.values())
    record(2, ok, "; ".join(f"alpha={a:g}: |codim err| = {gap:.4f}"
                            for a, gap in sorted(gaps.items())))


def test_criterion_03_cutoff_energies_and_polar_verdict():
    fam = build_family("ex5.1")
    win = 101
    g = fam.truncate(win)
    worst = 0.0
    for n in range(1, 101):
        vals = np.zeros(g.n)
        for x in range(-n, n + 1):
            vals[g.origin + x] = 1.0 - abs(x) / n
        q = energy(VertexFunction(g, vals))
        worst = max(worst, abs(q - 2.0 / n) / (2.0 / n))
    rep = boundary_capacity(fam, **STANDARD_CAP)
    caps_small = all(min(s.cummin_upper) < 1e-3 for s in rep.per_end)
    slopes_neg = all(s.diagnostics["upper_loglog_slope"] < -0.2
                     for s in rep.per_end)
    ok = (worst <= 1e-12 and caps_small and slopes_neg
          and rep.polarity == "polar")
    record(3, ok, f"Q(e_n) = 2/n max rel err {worst:.2e}; caps < 1e-3: "
           f"{caps_small}, negative slope: {slopes_neg}, "
           f"verdict {rep.polarity}")


def test_criterion_04_non_esa_witness():
    fam = build_family("ex5.1")
    wit = harmonic_witness_check(fam, window=200)
    energies_exact = all(e == 2.0 * n for n, e in wit.energy_per_window)
    verdict = classify(fam, budget="standard").esa
    ok = (wit.interior_residual <= 1e-12 and wit.l2.verdict == "converged"
          and energies_exact and wit.passed and verdict.value == "no")
    record(4, ok, f"interior residual {wit.interior_residual:.2e}, "
           f"l2 {wit.l2.verdict}, window energies == 2N: {energies_exact}, "
           f"esa verdict {verdict.value!r}")


def test_criterion_05_ex53a_regime():
    fam = build_family("ex5.3a")
    (lam,) = lambda_solve(fam, window=200).values()
    lam_ok = (lam.bounded == "bounded" and lam.criterion.verdict == "converged"
              and lam.l2.verdict == "converged"
              and lam.energy.verdict == "converged"
              and lam.in_max_form_domain)
    (seq,) = boundary_capacity(fam, **STANDARD_CAP).per_end
    d = seq.diagnostics
    cap_ok = (seq.regime == "positive-finite"
              and d["solver_last_quartile_change"] < 1e-4
              and d["solver_last"] > 0.01)
    alt = classify(fam, budget="standard").boundary_alternative
    ok = lam_ok and cap_ok and alt.verdict == "forms differ: D(Q) != D(Q^max)"
    record(5, ok, f"lambda=1 solution in max-form domain: {lam_ok}; cap "
           f"limit {d['solver_last']:.6f} (lq change "
           f"{d['solver_last_quartile_change']:.1e}); verdict {alt.verdict!r}")


def _identity_corpus():
    """The criterion-6/7 corpus: 1000 seeded graphs, <= 10 vertices,
    w in (0, 4], mu in (0, 2]."""
    rng = np.random.default_rng(60)
    for _ in range(1000):
        yield make_random_graph(rng), rng


def test_criterion_06_identity_suite():
    failures = 0
    worst = {"green": 0.0, "leibniz": 0.0, "cacc": 0.0, "contr": -math.inf}
    for g, rng in _identity_corpus():
        u, v, f, h, e = (VertexFunction(g, random_values(rng, g.n))
                         for _ in range(5))
        gr = green_identity_check(u, v)
        lb = leibniz_check(f, h, e)
        eta = VertexFunction(g, np.clip(np.abs(h.values), 0.0, 1.0))
        cc = caccioppoli_check(u, eta)
        contr = energy(f.clip()) - energy(f)
        worst["green"] = max(worst["green"], gr.residual)
        worst["leibniz"] = max(worst["leibniz"], lb.residual)
        worst["cacc"] = min(worst["cacc"], cc.terms["slack"])
        worst["contr"] = max(worst["contr"], contr)
        if not (gr.residual <= 1e-9 and lb.residual <= 1e-9
                and cc.terms["slack"] >= -1e-9 and contr <= 1e-12):
            failures += 1
    ok = failures == 0
    record(6, ok, f"failures {failures}/1000; worst green "
           f"{worst['green']:.1e}, leibniz {worst['leibniz']:.1e}, "
           f"caccioppoli slack {worst['cacc']:.1e}, contraction excess "
           f"{worst['contr']:.1e}")


def test_criterion_07_intrinsic_certificates_and_cutoff_bound():
    min_slack = math.inf
    for g, _rng in _identity_corpus():
        for lengths in (sigma0(g), sigma1(g)):
            cert = strongly_intrinsic_check(g, lengths)
            min_slack = min(min_slack, cert.min_slack)
            if not cert.passed:
                record(7, False, f"certificate failed, slack {cert.min_slack}")
    cert_ok = min_slack >= -1e-15

    rng = np.random.default_rng(61)
    violations = 0
    families = 0
    for _label, name, params, _check in GOLDEN_RUNS:
        fam = build_family(name, params)
        win = fam.max_window(48)
        g = fam.truncate(win)
        metric = PathMetric(lengths_for(g, "sigma0", fam))
        x0 = g.origin
        dist = metric.distances_from(x0)
        ecc = float(np.max(dist[np.isfinite(dist)]))
        families += 1
        for _ in range(100):
            r = rng.uniform(0.0, 0.9 * ecc)
            R = r + rng.uniform(1e-3, 1.2 * ecc)
            eta = cutoff_eta(metric, x0, r, R)
            bound = 1.0 / (R - r) ** 2
            grad = gradient_sq_all(eta)
            for x in range(g.n):
                # 1e-12 absolute for O(1) bounds, relative beyond: the
                # bound is attained exactly at sigma_0-tight vertices,
                # where rounding splits either way at ulp scale
                mb = g.mu[x] * bound
                if grad[x] > mb + 1e-12 * max(1.0, mb):
                    violations += 1
    ok = cert_ok and violations == 0
    record(7, ok, f"min certificate slack {min_slack:.1e} over 2000 "
           f"checks; {violations} gradient-bound violations over "
           f"{families} families x 100 pairs")


def test_criterion_08_shortest_path_oracle():
    rng = np.random.default_rng(62)
    graphs = 0
    worst = 0.0
    while graphs < 200:
        g = make_random_graph(rng, n_max=8)
        if not g.is_connected():
            continue
        graphs += 1
        lengths = sigma0(g)
        metric = PathMetric(lengths)
        sources = range(g.n) if g.n <= 5 else [int(rng.integers(g.n))]
        for src in sources:
            got = metric.distances_from(src)
            want = exhaustive_distances(g, lengths, src)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    record(8, ok, f"max |distance() - exhaustive| = {worst:.1e} over "
           f"{graphs} connected graphs (n <= 8)")


def test_criterion_09_equilibrium_oracle():
    rng = np.random.default_rng(63)
    worst = 0.0
    for _ in range(300):
        g = make_random_graph(rng, n_max=6)
        k = int(rng.integers(1, g.n + 1))
        U = sorted(rng.choice(g.n, size=k, replace=False).tolist())
        res = equilibrium(g, U)
        dense_cap, _ = lstsq_capacity(g, U)
        worst = max(worst, abs(res.cap - dense_cap))
    path3 = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 1.0])
    hand = equilibrium(path3, [2]).cap
    hand_err = abs(hand - math.sqrt(8.0 / 5.0))
    ok = worst <= 1e-9 and hand_err <= 1e-12
    record(9, ok, f"max |sparse - dense| = {worst:.1e} over 300 graphs "
           f"(n <= 6); path-3 cap err {hand_err:.1e}")


def test_criterion_10_codim3_polarity_mechanism():
    res = codim_polarity_test(build_family("codim3"))
    within = all(e.within_bound for e in res.entries)
    ok = (res.fires and res.decreasing and res.final_value < 1e-3
          and within)
    record(10, ok, f"monotone: {res.decreasing}, final value "
           f"{res.final_value:.2e} < 1e-3: {res.fires}, all within proof "
           f"bound: {within}")


def test_criterion_11_full_gallery():
    t0 = time.monotonic()
    result = run_gallery(budget="standard")
    elapsed = time.monotonic() - t0
    ok = result.exit_code == 0 and elapsed <= 300.0
    record(11, ok, f"exit code {result.exit_code}, "
           f"{len(result.records)} runs in {elapsed:.1f} s (limit 300 s); "
           f"mismatches: {len(result.failed_checks)}")
