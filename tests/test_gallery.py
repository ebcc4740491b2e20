import collections
import dataclasses
import json
import math
import os

import numpy as np
import pytest

import iglab.gallery as gallery
from iglab.errors import InputError, NumericalError, UnsupportedFamilyError
from iglab.gallery import (GOLDEN_RUNS, REGISTRY, RunRecord, build_family,
                           run_gallery, write_record_atomic)
from iglab.completeness import lengths_for
from iglab.metrics import PathMetric


# -- registry ------------------------------------------------------------------

def test_registry_contents():
    assert set(REGISTRY) == {"ex5.1", "ex5.2", "ex5.3a", "ex5.3", "ex5.4",
                             "ex5.5", "ex5.6", "codim3",
                             "a5.1", "a5.2", "a5.3", "a5.4", "a5.5"}


UNSUPPORTED = ("a5.2", "a5.5")      # they need an end-space model


def test_unsupported_families_say_why():
    for name in UNSUPPORTED:
        with pytest.raises(UnsupportedFamilyError, match="end-space model"):
            build_family(name)


def test_build_family_rejects_unknown():
    with pytest.raises(InputError, match="ex5.1"):
        build_family("ex9.9")


def test_build_family_rejects_bad_params():
    with pytest.raises(InputError):
        build_family("ex5.6", {"alpha": "zzz"})
    with pytest.raises(InputError):
        build_family("ex5.6", {"alpha": 1.0, "case": 7})
    with pytest.raises(InputError):
        build_family("ex5.1", {"p": 0.0})


def test_every_supported_family_truncates():
    for name in REGISTRY:
        if name in UNSUPPORTED:
            continue
        fam = build_family(name)
        g = fam.truncate(fam.max_window(8))
        assert g.n >= 2, name
        assert g.is_connected(), name


# -- star families ---------------------------------------------------------------

def test_star_truncation_shape():
    fam = build_family("a5.1")
    g = fam.truncate(4)
    # hub + 4 rays x 2 vertices
    assert g.n == 9
    metric = PathMetric(lengths_for(g, "sigma0", fam))
    tips = np.flatnonzero(np.diff(g.indptr) == 1).tolist()
    assert len(tips) == 4
    d = metric.distances_from(0)
    assert d[tips[0]] == pytest.approx(2.0, abs=1e-12)


def _loop_star(name, window):
    """A copy of the loop builder StarFamily.truncate replaced, with the
    scalar join, inner-edge and leak rules of a5.1, a5.3 and a5.4:
    (size, edges, leak)."""
    hub_w = extra_w = lambda n: 2.0 ** -n
    hub_leak = extra_leak = lambda N: 2.0 ** -N
    inner_w = {"a5.1": lambda n: 1.0 - 2.0 ** -n,
               "a5.3": lambda n: 4.0 ** n,
               "a5.4": lambda n: 2.0 ** n}[name]
    with_extra = name == "a5.3"
    n_rays = int(window)
    size = 2 * n_rays + 1 + (1 if with_extra else 0)
    edges = []
    for n in range(1, n_rays + 1):
        edges.append((0, 2 * n, float(hub_w(n))))
        edges.append((2 * n - 1, 2 * n, float(inner_w(n))))
    leak = {0: float(hub_leak(n_rays))}
    if with_extra:
        extra = size - 1
        for n in range(1, n_rays + 1):
            edges.append((extra, 2 * n, float(extra_w(n))))
        leak[extra] = float(extra_leak(n_rays))
    return size, edges, leak


@pytest.mark.parametrize("name", ["a5.1", "a5.3", "a5.4"])
def test_star_truncation_matches_the_loop_builder(name):
    # the array builder reproduces the loop bit for bit at every window
    fam = build_family(name)
    for window in range(2, fam.max_window(10 ** 9) + 1):
        size, edges, leak = _loop_star(name, window)
        g = fam.truncate(window)
        assert g.n == size
        assert list(g.edges()) == sorted(
            (min(x, y), max(x, y), w) for x, y, w in edges)
        assert g.mu.tolist() == [1.0] * size
        assert g.leak == leak
        assert g.frontier == set(leak)
        assert g.origin == 0


def test_star_ball_grows_with_window():
    # B_1(hub) holds the hub plus every mid vertex, one per ray, so its
    # size tracks the number of rays and never stabilizes
    fam = build_family("a5.1")
    sizes = []
    for win in (4, 8, 16):
        g = fam.truncate(win)
        metric = PathMetric(lengths_for(g, "sigma0", fam))
        d = metric.distances_from(0)
        sizes.append(int((d <= 1.0).sum()))
    assert sizes == [5, 9, 17]


# -- run records ------------------------------------------------------------------

def make_record(**over):
    base = dict(schema_version=gallery.SCHEMA_VERSION, tool="iglab 0.1.0",
                label="unit/label", family="ex5.4", params={"q": 2.0},
                sigma="canonical", budget="quick",
                started="2026-01-02T03:04:05", finished="2026-01-02T03:04:06",
                classification={"polarity": "polar"},
                checks=[{"name": "codim", "passed": True, "observed": 2.0,
                         "expected": "2 +/- 0.05", "skipped": False,
                         "reason": ""}],
                error=None)
    base.update(over)
    return RunRecord(**base)


def test_runrecord_roundtrip():
    rec = make_record()
    other = RunRecord.from_json(rec.to_json())
    assert other == rec
    assert json.loads(rec.to_json())["schema_version"] == 2


def test_record_json_is_the_asdict_text_for_quick_gallery_records():
    # to_json dumps the fields as they are, without asdict's deep copy;
    # the fields are plain data, so the text must not change
    for rec in run_gallery(budget="quick").records:
        text = rec.to_json()
        assert text == json.dumps(dataclasses.asdict(rec), sort_keys=True,
                                  indent=2)
        assert RunRecord.from_json(text).to_json() == text


def test_write_record_atomic(tmp_path):
    rec = make_record()
    path = write_record_atomic(rec, str(tmp_path))
    assert os.path.basename(path) == "unit_label.json"
    assert RunRecord.from_json(open(path).read()) == rec
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


# -- gallery driver ---------------------------------------------------------------

def test_golden_runs_cover_registry():
    labels = [r[0] for r in GOLDEN_RUNS]
    assert len(labels) == len(set(labels)) == 15
    families = {r[1] for r in GOLDEN_RUNS}
    assert families == set(REGISTRY) - set(UNSUPPORTED)


def test_run_gallery_single_family_ok(tmp_path):
    res = run_gallery(select=["a5.1"], budget="quick",
                      out_dir=str(tmp_path))
    assert res.exit_code == 0
    assert res.failed_checks == [] and res.numerical_failures == []
    (rec,) = res.records
    assert rec.label == "a5.1" and rec.error is None
    assert rec.classification is not None
    for c in rec.checks:
        assert set(c) == {"name", "passed", "observed", "expected",
                          "skipped", "reason"}
    assert os.path.exists(tmp_path / "a5.1.json")
    assert any("a5.1" in line and "ok" in line
               for line in res.summary_lines())


def test_run_gallery_select_by_family_name():
    res = run_gallery(select=["ex5.6"], budget="quick")
    assert len(res.records) == 5   # five parameter points share the family


def test_run_gallery_detects_mismatch():
    # quick budget truncates the codim scan too early for ex5.4's
    # depth-sensitive claims; the driver must report, not mask, this
    res = run_gallery(select=["ex5.4"], budget="quick")
    assert res.exit_code == 1
    assert res.failed_checks
    label, check = res.failed_checks[0]
    assert label == "ex5.4"
    assert not check.passed and not check.skipped


def test_run_gallery_unknown_selection():
    with pytest.raises(InputError, match="nosuch"):
        run_gallery(select=["nosuch"])


def test_run_gallery_numerical_failure(monkeypatch, tmp_path):
    def boom(fam, sigma, budget):
        raise NumericalError("synthetic solver failure")
    monkeypatch.setattr(gallery, "classify", boom)
    res = run_gallery(select=["a5.1"], budget="quick",
                      out_dir=str(tmp_path))
    assert res.exit_code == 3
    assert res.numerical_failures == [("a5.1", "synthetic solver failure")]
    rec = RunRecord.from_json(open(tmp_path / "a5.1.json").read())
    assert rec.error == "synthetic solver failure"
    assert rec.classification is None and rec.checks == []
    assert any("ERROR" in line for line in res.summary_lines())


def test_run_gallery_records_input_error_and_carries_on(monkeypatch,
                                                        tmp_path):
    # a run whose family rejects its parameters is recorded as an error;
    # the runs after it still run and write their records, and the exit
    # code is 2 once every record is written
    check_ex56 = next(run[3] for run in GOLDEN_RUNS if run[1] == "ex5.6")
    bad = ("ex5.6-bad", "ex5.6", {"alpha": -1.0, "case": 1}, check_ex56)
    a51 = next(run for run in GOLDEN_RUNS if run[0] == "a5.1")
    monkeypatch.setattr(gallery, "GOLDEN_RUNS", [bad, a51])
    res = run_gallery(budget="quick", out_dir=str(tmp_path))
    assert res.exit_code == 2
    assert res.input_failures == [("ex5.6-bad",
                                   "ex5.6: alpha must be positive")]
    assert [r.label for r in res.records] == ["ex5.6-bad", "a5.1"]
    rec = RunRecord.from_json(open(tmp_path / "ex5.6-bad.json").read())
    assert rec.error == "input error: ex5.6: alpha must be positive"
    assert rec.classification is None and rec.checks == []
    ok = RunRecord.from_json(open(tmp_path / "a5.1.json").read())
    assert ok.error is None and ok.classification is not None
    with pytest.raises(InputError, match="nosuch"):
        run_gallery(select=["nosuch"], out_dir=str(tmp_path / "none"))
    assert not (tmp_path / "none").exists()


def test_standard_gallery_realizes_each_window_and_tail_once(monkeypatch):
    # every truncate call for one (family, window) returns the one graph the
    # family built, and every tail rule runs once per (end, rule, k), over a
    # whole standard gallery with its golden claims
    graphs = collections.defaultdict(set)
    tails = collections.Counter()
    families = []

    def counted(end, attr, rule):
        def tail(k):
            tails[(id(end), attr, k)] += 1
            return rule(k)
        return tail

    def build(name, params=None):
        fam = build_family(name, params)
        families.append(fam)                 # keeps every id() unique
        for end in fam.ends():
            for attr in ("sigma_tail_fn", "mu_tail_fn"):
                rule = getattr(end, attr)
                if rule is not None:
                    setattr(end, attr, counted(end, attr, rule))
        truncate = fam.truncate

        def realize(window):
            g = truncate(window)
            graphs[(id(fam), window)].add(g)
            return g
        fam.truncate = realize
        return fam

    monkeypatch.setattr(gallery, "build_family", build)
    res = run_gallery(budget="standard")
    assert res.exit_code == 0, res.summary_lines()
    assert len(families) == len(GOLDEN_RUNS) and graphs and tails
    assert all(len(gs) == 1 for gs in graphs.values())
    assert set(tails.values()) == {1}


def _verdicts(record):
    c = record.classification
    cap = c["capacity"]
    return {"completeness": c["completeness"], "polarity": c["polarity"],
            "markov_unique": c["markov_unique"]["value"],
            "esa": c["esa"]["value"],
            "regimes": cap and [(s["end"], s["regime"])
                                for s in cap["per_end"]]}


def test_deep_verdicts_equal_standard():
    deep = run_gallery(budget="deep")
    assert deep.exit_code == 0, deep.summary_lines()
    standard = run_gallery(budget="standard")
    assert [r.label for r in deep.records] == \
        [r.label for r in standard.records]
    for d, s in zip(deep.records, standard.records):
        assert _verdicts(d) == _verdicts(s), d.label
