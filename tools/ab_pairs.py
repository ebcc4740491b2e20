"""Alternating A/B pairs of the benchmark, judged by the claim rule.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload NAME
        [--pairs 10] [--seconds 50] [--seed 1000] [--bench-out PATH]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a git
clone or `git archive` of each commit). Pair i runs
``python3 perfbench/run.py --workload NAME --seed SEED+i --seconds S
--trace 0`` once in each checkout, one run after the other; the parent runs
first in even pairs and the change first in odd ones, so host drift does
not favour one side. Each run's metrics are read from the JSON line that
run.py prints last.

Per metric it prints each side's median and quartiles (inclusive method),
the pairs the change won and lost (ties count for neither), and whether
the median gap exceeds the parent's interquartile range. A gain is claimed
only when the change wins at least nine tenths of the pairs run and the
gap exceeds that range. For the end-to-end metrics it also says whether
the change's median is worse than the parent's by more than the bound
BENCHMARK.json fixes, and calls the metric unresolved when the parent's
spread (its IQR over its median) exceeds that bound, unless every run of
the change is better than every run of the parent. Which way is better,
and the bounds, come from the parent's BENCHMARK.json. Standard library
only.

--bench-out PATH also writes what it prints as JSON, under the workload's
name in PATH's "workloads": per metric the judge() dict (each side's
(q1, median, q3), wins, losses, gap, parent IQR, spread and verdicts),
the seeds, the failed and attempted ops, and each side's environment line
from its first run.py run. After the pairs it runs each checkout once
more with ``--trace 1`` (first seed, same seconds) and stores under
"trace" that run's per-layer means and, for a workload that has one, its
ray-chain scaling table; a traced run that fails is stored as its error,
so the A/B already measured is still written. Under "src_lines" it stores
each side's ``wc -l src/iglab/*.py``: the lines of each file and their
total. Workloads already in PATH stay, so one file holds the A/B of every
workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def run_bench(checkout, workload, seed, seconds):
    """One untraced perfbench run in `checkout`; returns its final JSON
    object, with the run's environment line under "env"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["env"] = next((json.loads(line.split("env ", 1)[1]) for line in lines
                       if line.startswith("  env ")), None)
    return res


def run_traced(checkout, workload, seed, seconds):
    """One traced perfbench run in `checkout`: its per-layer means, and the
    ray-chain scaling table from the result file it writes (None for a
    workload without one)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    out = Path(checkout) / ".perfbench-out" / \
        f"{workload}-seed{seed}-trace1.json"
    return {"seed": seed,
            "layers": {name: m["value"] for name, m in res["metrics"].items()},
            "scaling": json.loads(out.read_text()).get("scaling")}


def src_lines(checkout):
    """{"files": {name: lines}, "total": lines} over src/iglab/*.py in
    `checkout`, counted as wc -l counts them (newline characters)."""
    files = {path.name: path.read_bytes().count(b"\n") for path in
             sorted((Path(checkout) / "src" / "iglab").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent, change, better="lower", bound=None):
    """The claim rule over paired runs: parent[i] and change[i] ran as
    pair i. Returns a dict of the summary numbers and verdicts."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need one parent and one change value per pair, "
                         "and at least two pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])            # > 0: the change is better
    iqr = pq[2] - pq[0]
    out = {"parent": pq, "change": cq, "pairs": len(parent), "wins": wins,
           "losses": losses, "gap": gap, "parent_iqr": iqr,
           "gap_exceeds_iqr": gap > iqr,
           "gain": wins >= WIN_SHARE * len(parent) and gap > iqr}
    if bound is not None:
        worse = -gap / abs(pq[1]) if pq[1] else 0.0
        spread = iqr / abs(pq[1]) if pq[1] else 0.0
        out["worse_frac"] = worse
        out["within_bound"] = worse <= bound
        out["parent_spread"] = spread
        # the parent's own runs differ by more than the bound, so the
        # medians cannot tell a change within the bound from one beyond it
        out["unresolved"] = spread > bound and not \
            max(sign * c for c in change) < min(sign * p for p in parent)
    return out


def metric_specs(checkout):
    """{metric: (better, bound or None)} from a checkout's BENCHMARK.json."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], None) for m in spec.get("per_layer", [])}
    out.update({m["name"]: (m["better"], m.get("bound"))
                for m in spec.get("end_to_end", [])})
    return out


def write_bench(path, workload, record):
    """Put record under workload in the JSON file at path, keeping the
    other workloads there."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("workloads", {})[workload] = record
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--seed", type=int, default=1000,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--bench-out", metavar="PATH",
                    help="also write the verdicts as JSON to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    specs = metric_specs(args.parent)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_bench(getattr(args, side), args.workload, args.seed + i,
                            args.seconds)
            runs[side].append(res)
            print(f"pair {i} {side:6s} seed {args.seed + i}: "
                  f"pass_s {res['metrics'].get('pass_s', {}).get('value')} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)

    names = [n for n in runs["parent"][0]["metrics"]
             if all(n in r["metrics"] for r in runs["change"])]
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':40s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s}  wins  gap>IQR  verdict")
    verdicts = {}
    for name in names:
        better, bound = specs.get(name, ("lower", None))
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        v = verdicts[name] = judge(p, c, better, bound)
        verdict = "gain" if v["gain"] else "no gain"
        if bound is not None and not v["within_bound"]:
            verdict += f", worse by {v['worse_frac']:.1%} > bound {bound:g}"
        if bound is not None and v["unresolved"]:
            verdict += (f", unresolved: parent spread "
                        f"{v['parent_spread']:.1%} > bound {bound:g}")
        print(f"{name:40s} {_fmt(v['parent']):>32s} {_fmt(v['change']):>32s}"
              f"  {v['wins']:2d}/{v['pairs']:<2d} {str(v['gap_exceeds_iqr']):>7s}"
              f"  {verdict}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs)
                 for side, rs in runs.items()}
    print(f"failed ops: parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}")
    if args.bench_out:
        traced = {}
        for side in ("parent", "change"):
            try:
                traced[side] = run_traced(getattr(args, side), args.workload,
                                          args.seed, args.seconds)
            except (OSError, subprocess.CalledProcessError, ValueError,
                    KeyError) as exc:
                print(f"traced run in {side} failed: {exc!r}",
                      file=sys.stderr)
                traced[side] = {"error": repr(exc)}
        write_bench(args.bench_out, args.workload, {
            "pairs": args.pairs, "seconds": args.seconds,
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            "env": {side: rs[0]["env"] for side, rs in runs.items()},
            "failed": failed, "attempted": attempted, "metrics": verdicts,
            "trace": traced,
            "src_lines": {side: src_lines(getattr(args, side))
                          for side in ("parent", "change")}})
    return 0


def _fmt(q):
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
