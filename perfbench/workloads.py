"""The benchmark workloads: seeded inputs, one op, and its output gate.

Every workload is built from the seed alone and hands iglab only the
generated inputs. An op returns whatever its gate needs; ``check`` raises
GateFailure when an output is wrong. Calls go through module attributes
(``lib.metrics.sigma0``) so that traced runs reach the rebound wrappers.

Why these workloads:

* gallery-standard: the main user path, ``run_gallery`` at the ``standard``
  budget; the analytic ramp grid in ``potential.boundary_capacity`` does
  most of its work, and the graph kernels are a small share.
* corpus-small: the finite-graph layers (graphs, metrics, forms,
  equilibrium) through many small calls on graphs with degree > 2, where
  fixed per-call costs dominate. It never calls ``boundary_capacity``.

The ray chain (a seeded ray of n vertices through graphs, metrics, forms,
equilibrium and the completeness scans) is not a timed workload: on a host
whose speed drifts in phases longer than a run, its few multi-second passes
could not be timed steadily. It runs in corpus-small's traced run as the
layer scaling table, n = 1e3 .. 1e6, with its gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

RESIDUAL_TOL = 1e-9        # equilibrium residual allowed by the gate
SLACK_TOL = 1e-12          # intrinsic slack may undercut the strong one by this


class GateFailure(Exception):
    """An op returned a wrong or unexpected output."""


def _require(cond, what):
    if not cond:
        raise GateFailure(what)


def _same_graph(g, h):
    """Bit-identical vertex measure and edge list."""
    return (g.n == h.n and g.mu.tobytes() == h.mu.tobytes()
            and list(g.edges()) == list(h.edges()))


# -- gallery-standard --------------------------------------------------------

def _verdicts(classification):
    cap = classification["capacity"]
    return {
        "completeness": classification["completeness"],
        "polarity": classification["polarity"],
        "markov_unique": classification["markov_unique"]["value"],
        "esa": classification["esa"]["value"],
        "regimes": ({e["end"]: e["regime"] for e in cap["per_end"]}
                    if cap else None),
    }


def _canonical(obj):
    return json.dumps(obj, sort_keys=True)


class GalleryStandard:
    """One op is one golden run through ``run_gallery(budget="standard")``,
    writing its record as ``iglab gallery --out`` does. No randomness: the
    seed is recorded and unused."""

    name = "gallery-standard"
    op_span = "gallery.run_gallery"

    def __init__(self, lib, seed, reference, work_dir):
        self.lib = lib
        self.seed = seed
        self.reference = reference["gallery-standard"]["verdicts"]
        self.reference_digest = \
            reference["gallery-standard"]["classification_digest"]
        self.out_dir = os.path.join(work_dir, "records")
        self.labels = [run[0] for run in lib.gallery.GOLDEN_RUNS]
        self.digests = {}             # label -> set of classification digests

    def warm_up(self):
        self.lib.gallery.run_gallery(budget="quick")

    def ops(self):
        for label in self.labels:
            yield label, (lambda label=label: self.lib.gallery.run_gallery(
                [label], budget="standard", out_dir=self.out_dir))

    def check(self, label, res):
        _require(len(res.records) == 1, "expected one record")
        rec = res.records[0]
        _require(rec.error is None, f"run error: {rec.error}")
        bad = [c["name"] for c in rec.checks
               if not c["passed"] and not c["skipped"]]
        _require(not bad, f"golden checks failed: {bad}")
        _require(res.exit_code == 0, f"exit code {res.exit_code}")
        path = os.path.join(self.out_dir, f"{label.replace('/', '_')}.json")
        with open(path) as fh:
            stored = json.load(fh)
        text = _canonical(stored["classification"])
        _require(text == _canonical(rec.classification),
                 "written record differs from the returned one")
        got = _verdicts(stored["classification"])
        _require(got == self.reference[label],
                 f"verdicts {got} differ from reference {self.reference[label]}")
        self.digests.setdefault(label, set()).add(
            hashlib.sha256(text.encode()).hexdigest())

    def summary(self):
        """Digest of every classification dict (record timestamps live
        outside it), and whether every pass produced the same one."""
        per_label = {k: sorted(v) for k, v in self.digests.items()}
        stable = all(len(v) == 1 for v in per_label.values())
        combined = hashlib.sha256("".join(
            per_label[k][0] for k in self.labels if k in per_label
        ).encode()).hexdigest()
        return {"classification_digest": combined,
                "digest_matches_reference": combined == self.reference_digest,
                "digest_stable_across_passes": stable,
                "per_label_digest": {k: v[0] for k, v in per_label.items()}}

    def deep_probe(self, deadline):
        """classify() at the deep budget once per golden family."""
        gallery = self.lib.gallery
        classify = self.lib.classify.classify
        rows = []
        for label, name, params, _ in gallery.GOLDEN_RUNS:
            if time.perf_counter() > deadline:
                rows.append({"label": label, "status": "skipped (time limit)",
                             "s": None})
                continue
            t0 = time.perf_counter()
            try:
                classify(gallery.build_family(name, params), "canonical",
                         "deep")
                status = "ok"
            except Exception as exc:          # recorded, probe carries on
                status = f"error: {type(exc).__name__}: {exc}"
            rows.append({"label": label, "status": status,
                         "s": time.perf_counter() - t0})
        return rows


# -- ray chain and layer scaling ---------------------------------------------

SCAN_REFERENCE_N = 100_000  # the size whose scan results reference.json holds
# intrinsic_check runs one Dijkstra per vertex, O(n^2 log n) on a ray: on a
# 2-core Xeon VM it took 3.8 s at n = 1e3 and 12.5 s at 2e3, so 1e4 would
# take minutes
INTRINSIC_MAX_N = 1000


def make_ray(lib, seed, n):
    """Seeded ray with w and mu uniform on [0.5, 2] per vertex, and a test
    function v uniform on [-2, 2]."""
    rng = np.random.default_rng([seed, n])
    w = rng.uniform(0.5, 2.0, n + 2)
    mu = rng.uniform(0.5, 2.0, n + 2)
    v = rng.uniform(-2.0, 2.0, n)

    def w_fn(x):
        return w[np.asarray(x, dtype=np.int64)]

    def mu_fn(x):
        return mu[np.asarray(x, dtype=np.int64)]

    fam = lib.graphs.RayFamily(f"ray-{n}", w_fn, mu_fn,
                               params={"seed": seed, "n": n})
    return fam, v


def _call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def ray_chain(lib, fam, v, n, n_scan, step=_call):
    """One pass of the ray chain; step(name, fn, *args) runs each stage."""
    g = step("graphs.truncate", fam.truncate, n)
    s0 = step("metrics.sigma0", lib.metrics.sigma0, g)
    cert = step("metrics.strongly_intrinsic_check",
                lib.metrics.strongly_intrinsic_check, g, s0)
    metric = lib.metrics.PathMetric(s0)
    d = step("metrics.distances_from", metric.distances_from, 0)
    big = float(d.max()) / 2.0
    eta = step("forms.cutoff_eta", lib.forms.cutoff_eta, metric, 0,
               big / 2.0, big)
    form = step("forms.form_report", lib.forms.form_report, eta)
    lap = step("forms.laplacian_all", lib.forms.laplacian_all, eta)
    green = step("forms.green_identity_check", lib.forms.green_identity_check,
                 eta, lib.forms.VertexFunction(g, v))
    eq = step("potential.equilibrium", lib.potential.equilibrium, g,
              range(n // 2, n))
    text = step("graphs.dumps", lib.graphs.dumps, g)
    g2 = step("graphs.loads", lib.graphs.loads, text)
    hopf = step("completeness.hopf_rinow_report",
                lib.completeness.hopf_rinow_report, fam, n_max=n_scan)
    deg = step("classify.deg_ball_boundedness",
               lib.classify.deg_ball_boundedness, fam, n_max=n_scan)
    return dict(g=g, g2=g2, cert=cert, form=form, lap=lap, green=green,
                eq=eq, hopf=hopf, deg=deg)


def check_ray(out, scans=None):
    _require(out["cert"].passed, "strongly intrinsic certificate failed")
    _require(out["green"].passed, "Green identity failed")
    _require(math.isfinite(out["form"].qnorm), "form norm not finite")
    _require(bool(np.all(np.isfinite(out["lap"]))), "Laplacian not finite")
    eq = out["eq"]
    _require(eq.bounds_ok, "equilibrium outside [0, 1]")
    _require(eq.residual <= RESIDUAL_TOL,
             f"equilibrium residual {eq.residual:.3e}")
    _require(_same_graph(out["g"], out["g2"]), "loads(dumps(g)) drifted")
    if scans is not None:
        got = {"hopf_verdict": out["hopf"].verdict,
               "hopf_stabilized": list(out["hopf"].stabilized.values()),
               "degball_bounded": out["deg"].bounded_per_ball,
               "degball_stable": list(out["deg"].stable.values())}
        _require(got == scans, f"scan results {got} differ from {scans}")


def ray_scaling(lib, seed, sizes, deadline, scans):
    """Seconds per ray chain stage at each n, outside the timed loop.
    Scans use n_max = 2^(round(log2 n) - 3), which is 2^14 at 1e5; their
    results at n = 1e5 must match `scans`."""
    rows = []
    last = None                  # (n, seconds) of the previous size
    for n in sizes:
        # every stage is about linear in n; skip a size that would end
        # past the deadline, with room for the host to slow down meanwhile
        if last is not None and \
                time.perf_counter() + 1.3 * last[1] * n / last[0] > deadline:
            rows.append({"n": n, "skipped": "time limit"})
            continue
        fam, v = make_ray(lib, seed, n)
        times = {}

        def step(name, fn, *args, **kwargs):
            t0 = time.perf_counter()
            res = fn(*args, **kwargs)
            times[name] = time.perf_counter() - t0
            return res

        t0 = time.perf_counter()
        out = ray_chain(lib, fam, v, n,
                        1 << (round(math.log2(n)) - 3), step)
        total = time.perf_counter() - t0
        check_ray(out, scans if n == SCAN_REFERENCE_N else None)
        if n <= INTRINSIC_MAX_N:
            metric = lib.metrics.PathMetric(lib.metrics.sigma0(out["g"]))
            cert = step("metrics.intrinsic_check",
                        lib.metrics.intrinsic_check, out["g"], metric)
            _require(cert.passed, "intrinsic certificate failed")
        del out
        rows.append({"n": n, "chain_s": total, "stages": times})
        last = (n, total)
    return {"rows": rows, "exponents": _exponents(rows),
            "intrinsic_check_max_n": INTRINSIC_MAX_N}


def _exponents(rows):
    """Least-squares slope of log seconds against log n, per stage."""
    series = {}
    for row in rows:
        for name, s in row.get("stages", {}).items():
            if s > 0:
                series.setdefault(name, []).append(
                    (math.log(row["n"]), math.log(s)))
    out = {}
    for name, pts in series.items():
        if len(pts) < 2:
            out[name] = None
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        out[name] = (sum((x - mx) * (y - my) for x, y in pts)
                     / sum((x - mx) ** 2 for x, _ in pts))
    return out


# -- corpus-small ------------------------------------------------------------

CORPUS_SIZES = range(4, 41)
CORPUS_REPEATS = 6         # every n in 4..40 appears this often per pass
EXTRA_EDGE_P = 0.3


def make_corpus(seed):
    """Seeded small graphs: a spanning path plus extra edges with
    probability 0.3, w in (0, 4], mu in (0, 2], three test functions and an
    equilibrium vertex. Each n in 4..40 appears equally often, so n is
    uniform over the pass and pass costs do not drift with the seed."""
    rng = np.random.default_rng(seed)
    sizes = np.repeat(np.array(CORPUS_SIZES), CORPUS_REPEATS)
    rng.shuffle(sizes)
    corpus = []
    for n in map(int, sizes):
        edges = [(x, x + 1, (1.0 - rng.random()) * 4.0) for x in range(n - 1)]
        for x in range(n):
            for y in range(x + 2, n):
                if rng.random() < EXTRA_EDGE_P:
                    edges.append((x, y, (1.0 - rng.random()) * 4.0))
        mu = (1.0 - rng.random(n)) * 2.0
        funcs = rng.uniform(-2.0, 2.0, size=(3, n))
        corpus.append((n, edges, mu, funcs, int(rng.integers(n))))
    return corpus


class CorpusSmall:
    """One op is one small graph through certificates, identities,
    equilibrium and the text round trip."""

    name = "corpus-small"
    op_span = "bench.small_graph"

    def __init__(self, lib, seed, reference, work_dir):
        self.lib = lib
        self.seed = seed
        self.ray_scans = reference["ray-100k"]
        self.corpus = make_corpus(seed)

    def warm_up(self):
        for spec in self.corpus[:10]:
            self._op(spec)

    def ops(self):
        for i, spec in enumerate(self.corpus):
            yield i, (lambda spec=spec: self._op(spec))

    def _op(self, spec):
        lib = self.lib
        metrics, forms = lib.metrics, lib.forms
        n, edges, mu, funcs, vertex = spec
        g = lib.graphs.WeightedGraph(n, edges, mu)
        certs = []
        for lengths in (metrics.sigma0(g), metrics.sigma1(g)):
            certs.append((
                metrics.strongly_intrinsic_check(g, lengths),
                metrics.intrinsic_check(g, metrics.PathMetric(lengths))))
        f, h, k = (forms.VertexFunction(g, vals) for vals in funcs)
        identities = (forms.green_identity_check(f, h),
                      forms.leibniz_check(f, h, k),
                      forms.caccioppoli_check(f, h))
        eq = lib.potential.equilibrium(g, [vertex])
        g2 = lib.graphs.loads(lib.graphs.dumps(g))
        return dict(g=g, g2=g2, certs=certs, identities=identities, eq=eq)

    def check(self, label, out):
        for strong, intrinsic in out["certs"]:
            _require(strong.passed and intrinsic.passed,
                     "intrinsic certificate failed")
            _require(bool(np.all(intrinsic.slack >= strong.slack - SLACK_TOL)),
                     "intrinsic slack below the strongly intrinsic slack")
        for ident in out["identities"]:
            _require(ident.passed, f"{ident.name} check failed")
        eq = out["eq"]
        _require(eq.bounds_ok, "equilibrium outside [0, 1]")
        _require(eq.residual <= RESIDUAL_TOL,
                 f"equilibrium residual {eq.residual:.3e}")
        _require(_same_graph(out["g"], out["g2"]), "loads(dumps(g)) drifted")

    def summary(self):
        return {"graphs_per_pass": len(self.corpus)}

    def scaling(self, sizes, deadline):
        return ray_scaling(self.lib, self.seed, sizes, deadline,
                           self.ray_scans)


WORKLOADS = {w.name: w for w in (GalleryStandard, CorpusSmall)}
