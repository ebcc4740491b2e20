"""Cutoff and witness energies from the rules against the realized windows.

reference_polarity_test below is codim_polarity_test as it ran before its
energies came from the rule arrays (LinearFamily._window_arrays, read
off the family's chain): every window
realized by truncate, and the cutoff's energy and mass taken by
forms.energy and norm_sq on it. The rule path must give the same values,
compared by their hex strings, build no graph, and raise the same errors.
"""

import collections
import math

import numpy as np
import pytest

from iglab.classify import harmonic_witness_check
from iglab.completeness import boundary_end
from iglab.errors import FamilyDefinitionError, InputError
from iglab.forms import VertexFunction, energy, laplacian_all, norm_sq
from iglab.gallery import GOLDEN_RUNS, build_family, run_gallery
from iglab.graphs import (End, GraphFamily, LinearFamily, LineFamily,
                          RayFamily)
from iglab.potential import codim_polarity_test

CUTOFF = [(label, name, params) for label, name, params, _ in GOLDEN_RUNS
          if name in ("codim3", "ex5.4", "ex5.5", "ex5.6")]
DEPTH = 30                  # the cutoff test's largest scale n


def reference_polarity_test(fam, depth):
    """Per n, (n, window, eta, value) as the cutoff test computed them on
    realized windows."""
    end = boundary_end(fam, "polarity test")
    out = []
    for n in range(2, depth + 1):
        R = end.sigma_tail(n).value / 2.0
        x1 = n + 1
        while end.sigma_tail(x1).value > R:
            x1 += 1
        window = x1 + 2
        g = fam.truncate(window)
        rv = np.array([end.sigma_tail(k).value for k in range(window)])
        eta = np.clip((2 * R - rv) / R, 0.0, 1.0)
        f = VertexFunction(g, eta)
        value = math.sqrt(energy(f) + norm_sq(f) + end.mu_tail(window).upper)
        out.append((n, window, eta, value))
    return out


def refuse(*args, **kwargs):
    raise AssertionError("a graph was built")


@pytest.mark.parametrize("label, name, params", CUTOFF,
                         ids=[r[0] for r in CUTOFF])
def test_cutoff_values_match_the_realized_windows(label, name, params,
                                                  monkeypatch):
    monkeypatch.setattr(GraphFamily, "_window", refuse)
    got = codim_polarity_test(build_family(name, params))
    monkeypatch.undo()
    want = reference_polarity_test(build_family(name, params), DEPTH)
    assert [(e.n, e.value.hex()) for e in got.entries] == \
        [(n, value.hex()) for n, _, _, value in want]


@pytest.mark.parametrize("label, name, params", CUTOFF,
                         ids=[r[0] for r in CUTOFF])
def test_rule_energies_match_energy_and_norm_sq(label, name, params):
    # at every window the cutoff test visits, the rule arrays are the
    # realization's and the fsums over them are energy() and norm_sq()
    fam = build_family(name, params)
    for _, window, eta, _ in reference_polarity_test(fam, DEPTH):
        g = fam.truncate(window)
        w, mu = fam._window_arrays(window)
        assert w.tobytes() == g.edge_w.tobytes()
        assert mu.tobytes() == g.mu.tobytes()
        f = VertexFunction(g, eta)
        en = math.fsum((w * np.square(eta[:-1] - eta[1:])).tolist())
        mass = math.fsum((np.square(eta) * mu).tolist())
        assert (en.hex(), mass.hex()) == (energy(f).hex(), norm_sq(f).hex())


@pytest.mark.parametrize("label, name, params", CUTOFF,
                         ids=[r[0] for r in CUTOFF])
def test_deepest_chain_holds_each_windows_rules(label, name, params):
    # the cutoff test slices one chain of its deepest window; each slice
    # must be the window's own rule arrays, as numpy rounds them at that
    # array length in a family that never read deeper
    fam = build_family(name, params)
    windows = [window for _, window, _, _ in
               reference_polarity_test(fam, DEPTH)]
    w_all, mu_all = fam._window_arrays(windows[-1])
    for window in windows:
        w, mu = build_family(name, params)._window_arrays(window)
        assert w_all[:window - 1].tobytes() == w.tobytes()
        assert mu_all[:window].tobytes() == mu.tobytes()


@pytest.mark.parametrize("name", ["ex5.1", "ex5.3"])
def test_witness_energies_match_the_realized_windows(name):
    fam = build_family(name)
    for n in (8, 16, 32, 64):
        g = fam.truncate(n)
        h = VertexFunction(g, np.arange(g.n) - g.origin)
        assert math.fsum(fam._window_arrays(n)[0].tolist()).hex() == \
            energy(h).hex()


def test_witness_realizes_no_window(monkeypatch):
    monkeypatch.setattr(GraphFamily, "_window", refuse)
    rep = harmonic_witness_check(build_family("ex5.1"), window=200)
    monkeypatch.undo()
    fam = build_family("ex5.1")
    want = [(n, energy(VertexFunction(g, np.arange(g.n) - g.origin)))
            for n, g in ((n, fam.truncate(n)) for n in (8, 16, 32, 64))]
    assert [(n, e.hex()) for n, e in rep.energy_per_window] == \
        [(n, e.hex()) for n, e in want]


def two_end_line():
    """A line whose two ends differ and whose weights vary, so that h(x) =
    x is not harmonic: its witness residual is not 0."""
    minus = End(lambda x: 1.0 + 1.0 / (np.asarray(x, dtype=float) + 3.0),
                lambda x: 3.0 ** -np.asarray(x, dtype=float), np.ones_like)
    plus = End(lambda x: 2.0 - 0.7 ** np.asarray(x, dtype=float),
               lambda x: 0.3 * 2.0 ** -np.asarray(x, dtype=float),
               np.ones_like)
    return LineFamily("two ends", minus, plus)


@pytest.mark.parametrize("window", [40, 200])
@pytest.mark.parametrize("make", [lambda: build_family("ex5.1"),
                                  two_end_line], ids=["ex5.1", "two-ends"])
def test_witness_residual_matches_the_realized_window(make, window):
    # laplacian_all of h on truncate(min(window, 64)), off the frontier
    n_chk = min(window, 64)
    g = make().truncate(n_chk)
    lap = laplacian_all(VertexFunction(g, np.arange(g.n) - g.origin))
    want = max((abs(v) for i, v in enumerate(lap.tolist())
                if i not in g.frontier), default=0.0)
    got = harmonic_witness_check(make(), window).interior_residual
    assert got.hex() == want.hex()
    assert (want == 0.0) == (make().name == "ex5.1")


def raised(fn, *args):
    with pytest.raises((InputError, FamilyDefinitionError)) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def codim3_rules(**changes):
    """codim3's rules as keywords of RayFamily, with some replaced."""
    (end,) = build_family("codim3").ends()
    rules = {"w_fn": end.w_fn, "mu_fn": end.mu_fn, "sigma_fn": end.sigma_fn,
             "sigma_tail_fn": end.sigma_tail_fn,
             "mu_tail_fn": end.mu_tail_fn}
    return dict(rules, **changes)


def at_nine(rule, value):
    """rule, with `value` at index 9."""
    return lambda x: np.where(np.asarray(x) == 9, value, rule(x))


def bad_families():
    """Builders of families on which the cutoff test fails: a window past
    the cap, and a weight and a measure rule invalid at index 9."""
    def capped():
        fam = build_family("codim3")
        fam.window_cap = 20
        return fam

    def bad_rule(**kw):
        return lambda: RayFamily("bad", **codim3_rules(**kw))

    (end,) = build_family("codim3").ends()
    return {"window cap": capped,
            "weight rule": bad_rule(w_fn=at_nine(end.w_fn, np.nan)),
            "measure rule": bad_rule(mu_fn=at_nine(end.mu_fn, 0.0))}


@pytest.mark.parametrize("case", sorted(bad_families()))
def test_cutoff_errors_keep_their_text(case, monkeypatch):
    make = bad_families()[case]
    want = raised(reference_polarity_test, make(), DEPTH)
    monkeypatch.setattr(GraphFamily, "_window", refuse)
    assert raised(codim_polarity_test, make()) == want
    expect = {"window cap": "window 21 is not between the smallest window 2 "
                            "and the window cap 20",
              "weight rule": "weight rule invalid at edge index 9",
              "measure rule": "measure rule invalid at vertex 9"}[case]
    assert expect in want[1]


def half_line():
    """codim3's end on a line whose other end has infinite length: one
    boundary end, but every window holds both ends."""
    rules = codim3_rules()
    plus = End(rules.pop("w_fn"), rules.pop("mu_fn"), rules.pop("sigma_fn"),
               **rules)
    minus = End(np.ones_like, lambda x: 8.0 ** -np.asarray(x),
                np.ones_like, sigma_tail_fn=lambda k: math.inf,
                mu_tail_fn=lambda k: (8.0 / 7.0) * 8.0 ** -k)
    return LineFamily("half", minus, plus)


def test_cutoff_test_on_a_line_needs_a_ray(monkeypatch):
    monkeypatch.setattr(GraphFamily, "_window", refuse)
    monkeypatch.setattr(LinearFamily, "_window_arrays", refuse)
    assert raised(codim_polarity_test, half_line()) == \
        (InputError, "half: the cutoff test needs a ray")


def test_cutoff_test_reads_one_window_of_rule_arrays(monkeypatch):
    windows = []
    arrays = LinearFamily._window_arrays

    def spy(self, window):
        windows.append(window)
        return arrays(self, window)
    monkeypatch.setattr(LinearFamily, "_window_arrays", spy)
    codim_polarity_test(build_family("codim3"))
    assert len(windows) == 1


def test_standard_gallery_builds_graphs_only_for_stars(monkeypatch):
    # every ray and line classifies from its rules, and a star, which is
    # not locally finite, runs no ball scan: the only windows realized are
    # the ones the stars' golden claims read, each once
    calls = collections.Counter()
    build = GraphFamily._window

    def spy(self, window):
        calls[self.name, int(window)] += 1
        return build(self, window)

    monkeypatch.setattr(GraphFamily, "_window", spy)
    assert run_gallery(budget="standard").exit_code == 0
    claims = {(name, window): 1 for name in ("a5.1", "a5.3", "a5.4")
              for window in (8, 16, 32)}
    assert calls == {**claims, ("a5.4", 40): 1}
