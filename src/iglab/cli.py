"""Command-line front end.

    iglab metric check   --family F [--sigma S] [--window N]
    iglab complete report --family F [--sigma S] [--n-max N]
    iglab forms check    --family F [--window N] [--trials T] [--seed S]
    iglab cap boundary   --family F [--tails N] [--format csv]
    iglab codim          --family F [--depth D] [--format csv]
    iglab classify       --family F [--budget B]
    iglab gallery        [--select L1,L2,...] [--budget B] [--out DIR]

--sigma is sigma0 | sigma1 | natural:K | canonical (the default). The
commands with --family also take --out FILE in place of stdout. --tails
is the largest tail N that `cap boundary` takes from the ladder sweep
(default 128); on a line the sweep runs in from depth at most 16 N.

--family takes either a path to a family config file (lines "family NAME"
then "key value" pairs) or an inline spec "NAME" / "NAME:key=val,key=val".

Exit codes: 0 success, 1 golden mismatch or failed identity, 2 invalid
input or an --out that cannot be written, 3 numerical failure. Output
into a closed pipe is dropped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .classify import classify
from .completeness import hopf_rinow_report, lengths_for
from .errors import InputError, NumericalError
from .forms import (VertexFunction, caccioppoli_check, energy,
                    green_identity_check, leibniz_check)
from .gallery import _write_atomic, build_family, run_gallery
from .metrics import (PathMetric, discovered_jump_size, intrinsic_check,
                      strongly_intrinsic_check)
from .potential import boundary_capacity, minkowski_samples


# -- family specs ---------------------------------------------------------
#
# A family config file has key-value lines, one per line, '#' comments
# allowed:
#     family ex5.6
#     alpha 1.0
#     case 2
# 'family' is required and each key appears once; remaining keys are
# parsed as int, then float, then kept as strings, and passed to the
# registry builder.

def load_family_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read family config {path}: {exc}") from None
    name = None
    params = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise InputError(f"bad config line {ln}: {raw.rstrip()!r}")
        key, val = parts[0], parts[1].strip()
        if key in params or (key == "family" and name is not None):
            raise InputError(f"repeated key {key!r} on config line {ln}")
        if key == "family":
            name = val
        else:
            params[key] = _cast(val)
    if name is None:
        raise InputError("config file missing 'family <name>' line")
    return name, params


def _cast(text: str):
    """A parameter value: int if it parses as one, else float, else str."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _resolve_family(spec: str):
    if os.path.exists(spec):
        name, params = load_family_config(spec)
        return build_family(name, params)
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise InputError(f"bad inline parameter {item!r} "
                                 "(expected key=value)")
            key = key.strip()
            if key in params:
                raise InputError(f"repeated parameter {key!r}")
            params[key] = _cast(val.strip())
    return build_family(name.strip(), params)


def _emit(payload: str, out: str | None):
    """Write payload to the file out, or with a final newline to stdout. Once
    the reader has closed stdout's pipe, the rest of the run writes to
    os.devnull (Python docs, "Note on SIGPIPE"): the exit code stays the
    command's own."""
    if out:
        _write_atomic(out, payload)
        return
    try:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _csv(header, rows) -> str:
    """header and rows as CSV. A missing (None) or non-finite number is an
    empty field, as JSON writes it null."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([None if isinstance(v, float) and not math.isfinite(v)
                      else v for v in row] for row in rows)
    return buf.getvalue()


def _cmd_metric_check(args) -> int:
    fam = _resolve_family(args.family)
    g = fam.truncate(args.window)
    lengths = lengths_for(g, args.sigma, fam)
    strong = strongly_intrinsic_check(g, lengths)
    metric = PathMetric(lengths)
    intrinsic = intrinsic_check(g, metric)
    _emit(_json({
        "family": fam.describe(), "window": args.window, "sigma": args.sigma,
        "strongly_intrinsic": strong.to_dict(),
        "intrinsic_path_metric": intrinsic.to_dict(),
        "observed_jump_size": discovered_jump_size(metric),
    }), args.out)
    return 0


def _cmd_complete_report(args) -> int:
    fam = _resolve_family(args.family)
    rep = hopf_rinow_report(fam, args.sigma, n_max=args.n_max)
    _emit(_json(rep.to_dict()), args.out)
    return 0


def _cmd_forms_check(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, not {args.trials}")
    fam = _resolve_family(args.family)
    g = fam.truncate(args.window)
    rng = np.random.default_rng(args.seed)
    worst = {"green": 0.0, "leibniz": 0.0, "caccioppoli": 0.0}
    ok = True
    for _ in range(args.trials):
        vals = rng.standard_normal((4, g.n))
        u, v, h, e = (VertexFunction(g, row) for row in vals)
        gr = green_identity_check(u, v)
        lb = leibniz_check(u, v, h)
        # Caccioppoli wants a [0,1]-valued cutoff-like second argument
        eta = VertexFunction(g, np.clip(np.abs(vals[3]), 0.0, 1.0))
        cc = caccioppoli_check(u, eta)
        contraction_ok = energy(u.clip()) <= energy(u) * (1 + 1e-12)
        worst["green"] = max(worst["green"], gr.residual)
        worst["leibniz"] = max(worst["leibniz"], lb.residual)
        worst["caccioppoli"] = max(worst["caccioppoli"], cc.residual)
        ok = ok and gr.passed and lb.passed and cc.passed and contraction_ok
    _emit(_json({
        "family": fam.describe(), "window": args.window,
        "trials": args.trials, "seed": args.seed,
        "max_residuals": worst, "all_passed": ok,
    }), args.out)
    return 0 if ok else 1


def _cmd_cap_boundary(args) -> int:
    fam = _resolve_family(args.family)
    rep = boundary_capacity(fam, solver_tail_max=args.tails)
    if args.format == "csv":
        _emit(_csv(["end", "tail", "cap", "bracket_upper", "ramp_upper",
                    "certified_upper"],
                   ([seq.end_label, e.tail_start, e.solver_cap,
                     e.bracket_upper, e.ramp_upper, e.certified_upper]
                    for seq in rep.per_end for e in seq.entries)), args.out)
    else:
        _emit(_json(rep.to_dict()), args.out)
    return 0


def _cmd_codim(args) -> int:
    fam = _resolve_family(args.family)
    est = minkowski_samples(fam, depth=args.depth)
    if args.format == "csv":
        loc = [None] + list(est.local_slopes)
        _emit(_csv(["x", "r", "mu_ball", "ratio", "local_slope"],
                   ([int(x), est.r[i], est.mu_ball[i], est.ratios[i], loc[i]]
                    for i, x in enumerate(est.xs))), args.out)
    else:
        _emit(_json(est.to_dict()), args.out)
    return 0


def _cmd_classify(args) -> int:
    fam = _resolve_family(args.family)
    rep = classify(fam, budget=args.budget)
    _emit(_json(rep.to_dict()), args.out)
    return 0


def _cmd_gallery(args) -> int:
    select = args.select.split(",") if args.select else None
    result = run_gallery(select=select, budget=args.budget,
                         out_dir=args.out)
    _emit("\n".join(result.summary_lines()), None)
    for label, check in result.failed_checks:
        print(f"MISMATCH {label}: {check.name}: expected {check.expected}, "
              f"observed {check.observed}", file=sys.stderr)
    for label, msg in result.numerical_failures:
        print(f"NUMERICAL FAILURE {label}: {msg}", file=sys.stderr)
    for label, msg in result.input_failures:
        print(f"INPUT ERROR {label}: {msg}", file=sys.stderr)
    return result.exit_code


def _add_family_opts(p, sigma=False):
    p.add_argument("--family", required=True,
                   help="family config file or inline NAME[:k=v,...]")
    if sigma:
        p.add_argument("--sigma", default="canonical",
                       help="sigma0 | sigma1 | natural:K | canonical")
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iglab",
        description="numerical laboratory for weighted-graph Laplacians")
    ap.add_argument("--version", action="version",
                    version=f"iglab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="intrinsic metric certificates")
    msub = p.add_subparsers(dest="subcommand", required=True)
    pc = msub.add_parser("check", help="intrinsic/strongly-intrinsic check")
    _add_family_opts(pc, sigma=True)
    pc.add_argument("--window", type=int, default=64)
    pc.set_defaults(fn=_cmd_metric_check)

    p = sub.add_parser("complete", help="completeness evidence")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pr = csub.add_parser("report", help="ball stabilization and end lengths")
    _add_family_opts(pr, sigma=True)
    pr.add_argument("--n-max", type=int, default=256)
    pr.set_defaults(fn=_cmd_complete_report)

    p = sub.add_parser("forms", help="Dirichlet form identities")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pf = fsub.add_parser("check", help="Green/Leibniz/Caccioppoli residuals")
    _add_family_opts(pf)
    pf.add_argument("--window", type=int, default=32)
    pf.add_argument("--trials", type=int, default=25)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(fn=_cmd_forms_check)

    p = sub.add_parser("cap", help="boundary capacities")
    capsub = p.add_subparsers(dest="subcommand", required=True)
    pb = capsub.add_parser("boundary", help="tail capacity sequences")
    _add_family_opts(pb)
    pb.add_argument("--tails", type=int, default=128)
    pb.add_argument("--format", choices=("json", "csv"), default="json")
    pb.set_defaults(fn=_cmd_cap_boundary)

    pd = sub.add_parser("codim", help="Minkowski codimension estimates")
    _add_family_opts(pd)
    pd.add_argument("--depth", type=int, default=40)
    pd.add_argument("--format", choices=("json", "csv"), default="json")
    pd.set_defaults(fn=_cmd_codim)

    pl = sub.add_parser("classify", help="combined uniqueness verdicts")
    _add_family_opts(pl)
    pl.add_argument("--budget", default="standard")
    pl.set_defaults(fn=_cmd_classify)

    pg = sub.add_parser("gallery", help="golden families with claim checks")
    pg.add_argument("--select", default=None,
                    help="comma-separated run labels or family names")
    pg.add_argument("--budget", default="standard")
    pg.add_argument("--out", default=None, help="directory for run records")
    pg.set_defaults(fn=_cmd_gallery)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:    # OSError: an unwritable --out
        print(f"iglab: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"iglab: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
