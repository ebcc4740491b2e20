import json
import math
import os

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
    assert all(spec.summary for spec in REGISTRY.values())
    assert not REGISTRY["a5.2"].supported
    assert not REGISTRY["a5.5"].supported


def test_unsupported_families_say_why():
    for name in ("a5.2", "a5.5"):
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
    for name, spec in REGISTRY.items():
        if not spec.supported:
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
    tips = [x for x in range(g.n) if g.combinatorial_degree(x) == 1]
    assert len(tips) == 4
    d = metric.distances_from(0)
    assert d[tips[0]] == pytest.approx(2.0, abs=1e-12)


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
    supported = {n for n, s in REGISTRY.items() if s.supported}
    assert families == supported


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
