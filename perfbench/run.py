"""iglab benchmark: closed loop, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; iglab is imported from ./src. Each run sets
up its workload from the seed, warms up, then runs passes back to back for
about S seconds, checking every op's output. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.

Timings are taken per op. The host this runs on shares its cores, and its
speed drifts by up to 2x in phases of seconds to minutes; a median over a
run follows that drift. So every op keeps its fastest latency of the run:
``pass_s`` is the sum of those bests over the ops of one pass, and
``op_p50_s``/``op_p90_s`` are quantiles of them over the distinct ops. The
raw pass times are kept in the result file.

End-to-end metrics come only from untraced runs. A traced run alternates
untraced and traced passes inside the same S seconds; per-layer numbers are
means per traced pass, and ``trace.overhead_s`` is the median difference
between a traced pass and the untraced pass run just before it. After the
loop a traced corpus-small run adds the layer scaling table of the ray
chain (n = 1e3 .. 1e6) and a traced gallery-standard run adds a one-shot
classify() at the ``deep`` budget for every golden family.

``--workload all`` runs every workload in BENCHMARK.json order in this one
process. Its ``peak_rss_mb`` is then the process peak so far; the order
lists the workloads by ascending memory, so each still reads its own peak.

Full results, the environment fingerprint and the spans of the last traced
pass are written under .perfbench-out/ in the repository root.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the set-up
# probes that inherit this environment: one client, no hidden threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
LAYERS = ("graphs", "metrics", "forms", "completeness", "potential",
          "classify", "gallery", "series")
SETUP_PROBES = 3          # extra set-ups in fresh processes, for setup_s
SCALING_SIZES = (1_000, 10_000, 100_000, 1_000_000)
RUN_LIMIT_S = 150         # extras stop starting new work past this point


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_lib():
    """Import iglab from ROOT/src and return its layer modules."""
    src = ROOT / "src"
    if not (src / "iglab" / "__init__.py").is_file():
        raise BenchError(f"no iglab sources under {src}")
    sys.path.insert(0, str(src))
    import iglab
    if Path(iglab.__file__).resolve().parent != (src / "iglab").resolve():
        raise BenchError(f"imported iglab from {iglab.__file__}, not {src}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"iglab.{name}") for name in LAYERS})


def set_up(workload, seed, work_dir):
    """Import iglab, generate the inputs and build the workload's families.
    Returns (seconds, workload object)."""
    t0 = time.perf_counter()
    lib = import_lib()
    from workloads import WORKLOADS
    reference = json.loads((HERE / "reference.json").read_text())
    wl = WORKLOADS[workload](lib, seed, reference, work_dir)
    return time.perf_counter() - t0, wl


def probe_setup(workload, seed):
    """Set-up time in a fresh interpreter (cold imports)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def fingerprint(seed):
    import numpy
    import scipy
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_commit():
    """HEAD of ROOT if it is a git checkout, else None (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(wl, tracer=None):
    """One pass; returns ((label, latency) per op, failures). Gates run after
    each op and are not timed."""
    latencies, failures = [], []
    clock = time.perf_counter
    for label, op in wl.ops():
        if tracer is not None:
            op = tracer.wrap(wl.op_span, op)
        t0 = clock()
        try:
            out = op()
        except Exception:
            latencies.append((label, clock() - t0))
            failures.append((label, traceback.format_exc(limit=3)))
            continue
        latencies.append((label, clock() - t0))
        try:
            wl.check(label, out)
        except Exception as exc:
            failures.append((label, f"{type(exc).__name__}: {exc}"))
        del out
    return latencies, failures


def quantile(values, q):
    """Inclusive-method quantile (q in percent) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(wl, seconds):
    """Passes for about `seconds`: a pass is not started if it would end
    more than half a pass past them. Returns (pass times, fastest latency
    per op label, ops attempted, failures)."""
    passes, best, failures = [], {}, []
    attempted = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        lat, fail = run_pass(wl)
        passes.append(sum(t for _, t in lat))
        for label, t in lat:
            best[label] = min(t, best.get(label, t))
        attempted += len(lat)
        failures += fail
        if time.perf_counter() - start + passes[-1] / 2 >= seconds:
            return passes, best, attempted, failures


def run_traced(wl, seconds):
    """Alternate untraced and traced passes for `seconds`."""
    from tracing import Tracer
    tracer = Tracer()
    if hasattr(wl, "fam"):
        tracer.instrument_family(wl.fam)
    plain, traced, stats, failures = [], [], [], []
    attempted = 0
    spans = []
    start = time.perf_counter()
    while True:
        gc.collect()
        with_trace = len(traced) < len(plain)
        if with_trace:
            tracer.install()
            try:
                lat, fail = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
            pass_stats, spans = tracer.take()
            stats.append(pass_stats)
            traced.append(sum(t for _, t in lat))
        else:
            lat, fail = run_pass(wl)
            plain.append(sum(t for _, t in lat))
        attempted += len(lat)
        failures += fail
        if traced and time.perf_counter() - start >= seconds:
            return plain, traced, stats, spans, attempted, failures


def per_layer(spec, stats, plain, traced):
    """Per-layer values: means per traced pass (0 for a layer the workload
    never calls) and the tracing overhead."""
    from tracing import known_stat
    values = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            # each traced pass against the untraced pass just before it
            values[name] = statistics.median(
                t - p for p, t in zip(plain, traced))
        elif known_stat(name):
            values[name] = sum(s.get(name, 0.0) for s in stats) / len(stats)
        else:
            raise BenchError(f"per-layer metric {name!r} is never recorded")
    return values


def write_spans(path, spans):
    names = sorted({s[1] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start_us", "end_us", "parent",
                              "op"],
                   "names": names,
                   "spans": [[sid, index[name], round((a - t0) * 1e6, 1),
                              round((b - t0) * 1e6, 1), parent, op]
                             for sid, name, a, b, parent, op in spans]},
                  fh, separators=(",", ":"))


def run_workload(spec, workload, seed, seconds, trace):
    """One closed-loop run of one workload; returns its result dict."""
    run_start = time.perf_counter()
    tag = f"{workload}-seed{seed}-trace{trace}"
    work_dir = OUT / f"work-{os.getpid()}"
    setup_s, wl = set_up(workload, seed, str(work_dir))
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = {"workload": workload, "seed": seed, "trace": trace,
                  "env": fingerprint(seed)}
        if not trace:
            setups = [setup_s] + [probe_setup(workload, seed)
                                  for _ in range(SETUP_PROBES)]
            wl.warm_up()
            passes, best, attempted, failures = run_untraced(wl, seconds)
            bests = list(best.values())
            e2e = {
                "setup_s": statistics.median(setups),
                "pass_s": sum(bests),
                "op_p50_s": quantile(bests, 50),
                "op_p90_s": quantile(bests, 90),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            result.update(setup_samples=setups, pass_samples=passes,
                          pass_median_s=statistics.median(passes),
                          op_best_s=best)
        else:
            wl.warm_up()
            plain, traced, stats, spans, attempted, failures = run_traced(
                wl, seconds)
            values = per_layer(spec["per_layer"], stats, plain, traced)
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["per_layer"]}
            result.update(untraced_pass_samples=plain,
                          traced_pass_samples=traced, layer_stats=stats)
            deadline = run_start + RUN_LIMIT_S
            if hasattr(wl, "scaling"):
                result["scaling"] = wl.scaling(SCALING_SIZES, deadline)
            if hasattr(wl, "deep_probe"):
                result["deep_probe"] = wl.deep_probe(deadline)
            write_spans(OUT / f"{tag}-spans.json", spans)
        if hasattr(wl, "summary"):
            result.update(wl.summary())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures, metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1,
                                                default=str))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        chosen = names
    elif args.workload in names:
        chosen = [args.workload]
    else:
        raise BenchError(f"unknown workload {args.workload!r}")

    if args.setup_probe:
        seconds, _ = set_up(args.workload, args.seed, str(OUT / "probe"))
        print(repr(seconds))
        return 0

    results = []
    for workload in chosen:
        result = run_workload(spec, workload, args.seed, args.seconds,
                              args.trace)
        report(result)
        results.append(result)
    summary = {"correct": not any(r["failed"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0


def report(result):
    """Human-readable lines (everything before the final JSON line)."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {result['trace']}")
    print("  env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {result['failed'] / result['attempted']:>16.6g}"
        f" ({result['failed']} of {result['attempted']} ops)")
    if "op_best_s" in result:
        print(f"  samples: {len(result['setup_samples'])} set-ups, "
            f"{len(result['pass_samples'])} passes, "
            f"{len(result['op_best_s'])} distinct ops "
            f"(median pass {result['pass_median_s']:.4g} s)")
    for label, why in result["failures"][:20]:
        print(f"  FAILED {label}: {why.strip().splitlines()[-1]}")
    if "classification_digest" in result:
        print(f"  classification digest {result['classification_digest']} "
            f"(same on every pass: {result['digest_stable_across_passes']}; "
            f"matches reference.json: {result['digest_matches_reference']})")
    if "scaling" in result:
        sc = result["scaling"]
        print("  scaling (seconds per stage; exponent of a log-log fit):")
        for row in sc["rows"]:
            if "skipped" in row:
                print(f"    n={row['n']:>8d}  skipped ({row['skipped']})")
            else:
                print(f"    n={row['n']:>8d}  chain {row['chain_s']:.3f} s")
        for name, k in sc["exponents"].items():
            cells = "  ".join(
                f"{r['stages'][name]:9.4f}" if name in r.get("stages", {})
                else f"{'-':>9s}" for r in sc["rows"])
            exp = f"{k:.2f}" if k is not None else "n/a"
            print(f"    {name:36s} {cells}  exp {exp}")
    if "deep_probe" in result:
        rows = result["deep_probe"]
        ok = sum(r["status"] == "ok" for r in rows)
        total = sum(r["s"] or 0.0 for r in rows)
        print(f"  deep probe: {ok} of {len(rows)} ok in {total:.2f} s")
        for r in rows:
            s = f"{r['s']:.2f} s" if r["s"] is not None else "-"
            print(f"    {r['label']:24s} {s:>9s}  {r['status']}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
