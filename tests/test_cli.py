import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import iglab.cli as cli
from iglab.errors import NumericalError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_version_subprocess():
    # the child finds iglab where this process did, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "iglab.cli", "--version"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "iglab 0.1.0"


def test_metric_check_json(capsys):
    code, out, err = run(capsys, "metric", "check", "--family", "ex5.4",
                         "--window", "32")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["sigma"] == "canonical"
    assert doc["strongly_intrinsic"]["verdict"] is True
    assert doc["strongly_intrinsic"]["min_slack"] >= -1e-15
    assert doc["intrinsic_path_metric"]["verdict"] is True


def test_metric_check_inline_params(capsys):
    code, out, _ = run(capsys, "metric", "check", "--family",
                       "ex5.6:alpha=2,case=2", "--window", "16",
                       "--sigma", "sigma0")
    assert code == 0
    assert json.loads(out)["sigma"] == "sigma0"


def test_complete_report(capsys):
    code, out, _ = run(capsys, "complete", "report", "--family", "ex5.3a",
                       "--n-max", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "incomplete-evidence"
    (end,) = doc["end_lengths"]
    assert end["finite"] is True
    assert end["length"] == pytest.approx((2 / 3) ** 0.5)


def test_forms_check(capsys):
    code, out, _ = run(capsys, "forms", "check", "--family", "ex5.1",
                       "--window", "24", "--trials", "5", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(v <= 1e-8 for v in doc["max_residuals"].values())


def test_cap_boundary_csv(capsys):
    code, out, _ = run(capsys, "cap", "boundary", "--family", "ex5.3a",
                       "--tails", "16", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["end", "tail", "cap"]
    assert len(rows) > 2
    # beyond the solver budget only analytic columns are filled
    caps = [float(r[2]) for r in rows[1:] if r[2]]
    assert caps and all(c > 0 for c in caps)


def test_codim_csv_to_file(capsys, tmp_path):
    target = tmp_path / "codim.csv"
    code, out, _ = run(capsys, "codim", "--family", "ex5.4", "--depth",
                       "12", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["x", "r", "mu_ball", "ratio", "local_slope"]
    assert len(rows) == 13
    # pointwise ratio at x = 12 (r = 2^-11) is 2 + ln 3 / (11 ln 2)
    expect = 2.0 + math.log(3.0) / (11.0 * math.log(2.0))
    assert float(rows[-1][3]) == pytest.approx(expect, rel=1e-9)
    assert float(rows[-1][4]) == pytest.approx(2.0, abs=1e-12)
    assert not target.with_suffix(".csv.tmp").exists()


def test_classify_with_config_file(capsys, tmp_path):
    cfg = tmp_path / "fam.cfg"
    cfg.write_text("# gallery family, case 2\nfamily ex5.6\nalpha 2.0\n"
                   "case 2\n")
    code, out, _ = run(capsys, "classify", "--family", str(cfg),
                       "--budget", "quick")
    assert code == 0
    doc = json.loads(out)
    assert doc["markov_unique"]["value"] in ("yes", "no", "inconclusive")
    assert doc["budget"] == "quick"


def test_gallery_ok(capsys, tmp_path):
    code, out, err = run(capsys, "gallery", "--select", "a5.1",
                         "--budget", "quick", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "a5.1" in out and "ok" in out
    assert (tmp_path / "a5.1.json").exists()


def test_gallery_mismatch_exit_1(capsys):
    code, out, err = run(capsys, "gallery", "--select", "ex5.4",
                         "--budget", "quick")
    assert code == 1
    assert "MISMATCH" in out or "MISMATCH" in err


def test_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "metric", "check", "--family", "nope")
    assert code == 2
    assert "input error" in err


def test_bad_budget_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--family", "a5.1",
                       "--budget", "huge")
    assert code == 2 and "input error" in err


def test_bad_inline_param_exit_2(capsys):
    code, _, err = run(capsys, "metric", "check", "--family",
                       "ex5.6:alpha")
    assert code == 2 and "key=value" in err


def test_sigma_precondition_exit_2(capsys):
    # natural:K demands Deg <= K, which ex5.4 violates almost immediately
    code, _, err = run(capsys, "metric", "check", "--family", "ex5.4",
                       "--sigma", "natural:4", "--window", "16")
    assert code == 2 and "Deg" in err


def test_unreadable_config_exit_2(capsys, tmp_path):
    # a directory, and a file that is not UTF-8, are input errors
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"family ex5.4\n# caf\xe9\n")
    for spec in (tmp_path, latin1):
        code, out, err = run(capsys, "classify", "--family", str(spec),
                             "--budget", "quick")
        assert code == 2 and out == ""
        assert "cannot read family config" in err


@pytest.mark.parametrize("depth", ["0", "1", "-3"])
def test_codim_shallow_depth_exit_2(capsys, depth):
    code, out, err = run(capsys, "codim", "--family", "ex5.4",
                         "--depth", depth)
    assert code == 2 and out == ""
    assert "needs depth >= 2" in err


@pytest.mark.parametrize("depth", ["600", "2000"])
def test_codim_stops_where_the_tails_underflow(capsys, depth):
    # ex5.4's measure tail (4/3) 4^-x is 0.0 past x = 537: sampling stops
    # there instead of fitting log 0 = -inf
    code, out, err = run(capsys, "codim", "--family", "ex5.4",
                         "--depth", depth)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["x"][-1] == 537 and min(doc["mu_ball"]) > 0.0
    assert doc["codim"] == pytest.approx(2.0, abs=0.01)
    assert math.isfinite(doc["fit_slope"])


def test_classify_where_the_codim_tails_underflow(capsys):
    # ex5.6 at alpha = 50: mu tail 2^(-99 x) / (1 - 2^-99) is 0.0 past x = 10
    code, out, err = run(capsys, "classify", "--family", "ex5.6:alpha=50",
                         "--budget", "quick")
    assert code == 0 and err == ""
    codim = json.loads(out)["codim"]
    assert codim["x"][-1] == 10
    assert math.isfinite(codim["codim"]) and math.isfinite(codim["fit_slope"])


@pytest.mark.parametrize("alpha, window", [("0.1", 36), ("0.3", 51)])
def test_classify_where_the_lambda_recursion_overflows(capsys, alpha, window):
    # ex5.6 at small alpha: mu = 2^((1 - 2 alpha) x) grows, and u^2 mu leaves
    # float range inside the standard lambda window 200, so the recursion
    # stops there and the ray keeps its infinite-measure ESA evidence
    code, out, err = run(capsys, "classify", "--family",
                         f"ex5.6:alpha={alpha}")
    assert code == 0 and err == ""
    doc = json.loads(out)
    sol = doc["lambda"]["plus"]
    assert sol["window"] == window and sol["increasing"] is True
    assert math.isfinite(sol["u_last"]) and sol["residual"] < 1e-12
    assert doc["esa"]["value"] == "yes (evidence)"
    assert doc["markov_unique"]["value"] == "yes"


def test_window_cap_below_smallest_window_exit_2(capsys):
    # the rules of ex5.2 are valid; the message must blame the cap
    code, out, err = run(capsys, "complete", "report", "--family", "ex5.2",
                         "--n-max", "1")
    assert code == 2 and out == ""
    assert "window cap 1 is below the smallest window 2" in err
    assert "rules invalid" not in err


def test_sigma_only_where_it_is_read():
    parser = cli.build_parser()
    for argv in (["metric", "check"], ["complete", "report"], ["classify"]):
        args = parser.parse_args(argv + ["--family", "ex5.4", "--sigma",
                                         "sigma1"])
        assert args.sigma == "sigma1"
    for argv in (["cap", "boundary"], ["codim"], ["forms", "check"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--family", "ex5.4", "--sigma",
                                      "sigma1"])


def test_numerical_failure_exit_3(capsys, monkeypatch):
    def boom(fam, sigma, budget):
        raise NumericalError("synthetic blowup")
    monkeypatch.setattr(cli, "classify", boom)
    code, _, err = run(capsys, "classify", "--family", "a5.1")
    assert code == 3
    assert "numerical failure: synthetic blowup" in err
