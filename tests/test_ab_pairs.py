"""The claim rule of tools/ab_pairs.py on hand-made paired runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    path = os.path.join(ROOT, "tools", "ab_pairs.py")
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load()
PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_quartiles_are_inclusive():
    assert ab.quartiles(PARENT) == pytest.approx((1.225, 1.45, 1.675))


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_iqr():
    # the parent's IQR is 0.45: a 0.5 drop in every pair is a gain
    v = ab.judge(PARENT, [p - 0.5 for p in PARENT])
    assert (v["wins"], v["losses"]) == (10, 0)
    assert v["gap"] == pytest.approx(0.5) and v["gap_exceeds_iqr"]
    assert v["gain"]
    # the same drop in 8 of 10 pairs, one tie and one loss: no gain
    change = [p - 0.5 for p in PARENT[:8]] + [PARENT[8], PARENT[9] + 0.1]
    v = ab.judge(PARENT, change)
    assert (v["wins"], v["losses"]) == (8, 1) and not v["gain"]
    # every pair won, by less than the parent's spread: no gain
    v = ab.judge(PARENT, [p - 0.1 for p in PARENT])
    assert v["wins"] == 10 and not v["gap_exceeds_iqr"] and not v["gain"]


def test_higher_is_better_and_the_regression_bound():
    v = ab.judge(PARENT, [p + 0.5 for p in PARENT], better="higher")
    assert v["wins"] == 10 and v["gain"]
    v = ab.judge(PARENT, [p * 1.2 for p in PARENT], bound=0.25)
    assert v["worse_frac"] == pytest.approx(0.2) and v["within_bound"]
    v = ab.judge(PARENT, [p * 1.3 for p in PARENT], bound=0.25)
    assert not v["within_bound"] and v["losses"] == 10


def test_pairs_must_match():
    with pytest.raises(ValueError):
        ab.judge(PARENT, PARENT[:-1])
    with pytest.raises(ValueError):
        ab.judge([1.0], [0.5])


def test_one_pair_is_refused_before_any_run(capsys):
    # the claim rule needs a spread of the parent's runs
    with pytest.raises(SystemExit) as exc:
        ab.main(["parent", "change", "--workload", "w", "--pairs", "1"])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_bench_out_writes_the_printed_verdicts(tmp_path, monkeypatch):
    # stand-in runs: the change halves pass_s in every pair; each run says
    # which side and seed it was
    def fake_run(checkout, workload, seed, seconds):
        value = (1.0 if checkout == "parent" else 0.5) + seed / 1000
        return {"metrics": {"pass_s": {"value": value, "unit": "s"}},
                "failed": 0, "attempted": 7,
                "env": {"side": checkout, "seed": seed}}

    monkeypatch.setattr(ab, "run_bench", fake_run)
    monkeypatch.setattr(ab, "metric_specs",
                        lambda checkout: {"pass_s": ("lower", 0.25)})
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}))
    assert ab.main(["parent", "change", "--workload", "w", "--pairs", "4",
                    "--seconds", "2", "--seed", "10",
                    "--bench-out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["workloads"]["other"] == {"kept": True}
    rec = data["workloads"]["w"]
    assert (rec["pairs"], rec["seconds"], rec["seeds"]) == (4, 2.0,
                                                            [10, 11, 12, 13])
    assert rec["env"] == {"parent": {"side": "parent", "seed": 10},
                          "change": {"side": "change", "seed": 10}}
    assert rec["failed"] == {"parent": 0, "change": 0}
    assert rec["attempted"] == {"parent": 28, "change": 28}
    want = ab.judge([1.0 + s / 1000 for s in range(10, 14)],
                    [0.5 + s / 1000 for s in range(10, 14)], "lower", 0.25)
    assert rec["metrics"]["pass_s"] == json.loads(json.dumps(want))
    assert rec["metrics"]["pass_s"]["gain"] and rec["metrics"]["pass_s"][
        "wins"] == 4


FAKE_RUN = '''
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--trace"] == "1"
out = pathlib.Path(".perfbench-out")
out.mkdir(exist_ok=True)
name = f"{args['--workload']}-seed{args['--seed']}-trace1.json"
(out / name).write_text(json.dumps({"scaling": {"rows": [{"n": 1000}]}}))
print("workload w")
print(json.dumps({"metrics": {"graphs.truncate.calls":
                              {"value": 65.0, "unit": "count"}}}))
'''


def test_run_traced_reads_the_layers_and_the_scaling_table(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    got = ab.run_traced(str(tmp_path), "w", 7, 3.0)
    assert got == {"seed": 7, "layers": {"graphs.truncate.calls": 65.0},
                   "scaling": {"rows": [{"n": 1000}]}}


def fake_pair_run(checkout, workload, seed, seconds):
    return {"metrics": {"pass_s": {"value": 1.0 + seed / 1000, "unit": "s"}},
            "failed": 0, "attempted": 7, "env": {"side": checkout}}


def test_bench_out_stores_one_traced_run_per_side(tmp_path, monkeypatch):
    # the traced runs use the first seed and the pairs' seconds, and come
    # after every pair
    calls = []

    def fake_traced(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        return {"seed": seed, "layers": {"calls": len(calls)},
                "scaling": {"rows": [checkout]}}

    monkeypatch.setattr(ab, "run_bench", fake_pair_run)
    monkeypatch.setattr(ab, "run_traced", fake_traced)
    monkeypatch.setattr(ab, "metric_specs",
                        lambda checkout: {"pass_s": ("lower", 0.25)})
    out = tmp_path / "BENCH.json"
    assert ab.main(["parent", "change", "--workload", "w", "--pairs", "2",
                    "--seconds", "3", "--seed", "5",
                    "--bench-out", str(out)]) == 0
    assert calls == [("parent", "w", 5, 3.0), ("change", "w", 5, 3.0)]
    rec = json.loads(out.read_text())["workloads"]["w"]
    assert rec["trace"] == {
        "parent": {"seed": 5, "layers": {"calls": 1},
                   "scaling": {"rows": ["parent"]}},
        "change": {"seed": 5, "layers": {"calls": 2},
                   "scaling": {"rows": ["change"]}}}


def test_a_failed_traced_run_keeps_the_pairs(tmp_path, monkeypatch, capsys):
    # no perfbench/run.py in either checkout: the traced runs fail, and the
    # A/B verdicts are written with each side's error
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    monkeypatch.setattr(ab, "run_bench", fake_pair_run)
    monkeypatch.setattr(ab, "metric_specs",
                        lambda checkout: {"pass_s": ("lower", 0.25)})
    out = tmp_path / "BENCH.json"
    assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                    "--workload", "w", "--pairs", "2", "--seconds", "1",
                    "--bench-out", str(out)]) == 0
    rec = json.loads(out.read_text())["workloads"]["w"]
    assert rec["metrics"]["pass_s"]["pairs"] == 2
    assert set(rec["trace"]) == {"parent", "change"}
    assert all("CalledProcessError" in t["error"]
               for t in rec["trace"].values())
    assert "traced run in parent failed" in capsys.readouterr().err


def test_src_lines_counts_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "iglab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")               # no final newline
    (pkg / "notes.txt").write_text("not\ncounted\n")
    assert ab.src_lines(str(tmp_path)) == {"files": {"a.py": 2, "b.py": 0},
                                           "total": 2}
    assert ab.src_lines(str(tmp_path / "missing")) == {"files": {},
                                                       "total": 0}


def test_bench_out_stores_each_sides_src_lines(tmp_path, monkeypatch):
    for side, lines in (("parent", 3), ("change", 5)):
        pkg = tmp_path / side / "src" / "iglab"
        pkg.mkdir(parents=True)
        (pkg / "m.py").write_text("pass\n" * lines)
    monkeypatch.setattr(ab, "run_bench", fake_pair_run)
    monkeypatch.setattr(ab, "run_traced", lambda *args: {"seed": 0})
    monkeypatch.setattr(ab, "metric_specs",
                        lambda checkout: {"pass_s": ("lower", 0.25)})
    out = tmp_path / "BENCH.json"
    assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                    "--workload", "w", "--pairs", "2", "--seconds", "1",
                    "--bench-out", str(out)]) == 0
    rec = json.loads(out.read_text())["workloads"]["w"]
    assert rec["src_lines"] == {"parent": {"files": {"m.py": 3}, "total": 3},
                                "change": {"files": {"m.py": 5}, "total": 5}}
