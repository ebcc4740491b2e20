"""Spans around iglab's public functions, installed from outside src/.

A traced pass wraps each function named in TARGETS and records one span per
call: id, name, start, end, parent span and the op (root span) it belongs
to. Module-level functions are rebound in every ``iglab`` module namespace
that holds them (``classify.py`` binds ``boundary_capacity`` at import time,
``potential.py`` calls ``equilibrium`` through its own globals, and the
package re-exports nearly everything), so a call reaches the wrapper
whichever name it goes through. Methods are wrapped on their class.

Self time is a span's duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap. Inclusive time
of a name counts only its outermost span, so a nested call of the same name
is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute path); several targets may share a name
TARGETS = [
    ("graphs.WeightedGraph", "iglab.graphs", "WeightedGraph.__init__"),
    ("graphs.truncate", "iglab.graphs", "RayFamily.truncate"),
    ("graphs.truncate", "iglab.graphs", "LineFamily.truncate"),
    ("graphs.truncate", "iglab.gallery", "StarFamily.truncate"),
    ("graphs.canonical_lengths", "iglab.graphs", "RayFamily.canonical_lengths"),
    ("graphs.canonical_lengths", "iglab.graphs",
     "LineFamily.canonical_lengths"),
    ("graphs.canonical_lengths", "iglab.gallery",
     "StarFamily.canonical_lengths"),
    ("graphs.End.tail", "iglab.graphs", "End.sigma_tail"),
    ("graphs.End.tail", "iglab.graphs", "End.mu_tail"),
    ("graphs.dumps", "iglab.graphs", "dumps"),
    ("graphs.loads", "iglab.graphs", "loads"),
    ("metrics.sigma0", "iglab.metrics", "sigma0"),
    ("metrics.sigma1", "iglab.metrics", "sigma1"),
    ("metrics.strongly_intrinsic_check", "iglab.metrics",
     "strongly_intrinsic_check"),
    ("metrics.intrinsic_check", "iglab.metrics", "intrinsic_check"),
    ("metrics.distances_from", "iglab.metrics", "PathMetric.distances_from"),
    ("forms.form_report", "iglab.forms", "form_report"),
    ("forms.laplacian_all", "iglab.forms", "laplacian_all"),
    ("forms.green_identity_check", "iglab.forms", "green_identity_check"),
    ("forms.leibniz_check", "iglab.forms", "leibniz_check"),
    ("forms.caccioppoli_check", "iglab.forms", "caccioppoli_check"),
    ("completeness.hopf_rinow_report", "iglab.completeness",
     "hopf_rinow_report"),
    ("potential.equilibrium", "iglab.potential", "equilibrium"),
    ("potential.boundary_capacity", "iglab.potential", "boundary_capacity"),
    ("potential.minkowski_samples", "iglab.potential", "minkowski_samples"),
    ("potential.codim_polarity_test", "iglab.potential",
     "codim_polarity_test"),
    ("classify.classify", "iglab.classify", "classify"),
    ("classify.lambda_solve", "iglab.classify", "lambda_solve"),
    ("classify.harmonic_witness_check", "iglab.classify",
     "harmonic_witness_check"),
    ("classify.deg_ball_boundedness", "iglab.classify",
     "deg_ball_boundedness"),
    ("gallery.build_family", "iglab.gallery", "build_family"),
    ("gallery.write_record_atomic", "iglab.gallery", "write_record_atomic"),
]

# named counts taken from a call's result
COUNTERS = {
    "graphs.truncate": ("vertices", lambda g: g.n),
    "potential.equilibrium": ("free_vertices", lambda r: r.e.graph.n - len(r.U)),
}

RULE_ELEMENTS = "rules.elements"


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.enabled = False
        self._installed = []          # (owner, attribute, original)
        self._stack = []              # open spans: [id, start, child_time]
        self._depth = defaultdict(int)
        self._next_id = 0
        self.spans = []               # (id, name, start, end, parent, op)
        self.stats = defaultdict(float)

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn):
        """Return fn wrapped in a span called name; it records only while
        the tracer is enabled."""
        stack, depth, stats, spans = (self._stack, self._depth, self.stats,
                                      self.spans)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                if not depth[name]:
                    stats[name + ".s"] += dur
                stats[name + ".self_s"] += dur - frame[2]
                stats[name + ".calls"] += 1
                spans.append((sid, name, frame[1], end,
                              parent[0] if parent else None,
                              stack[0][0] if stack else sid))
            if counter is not None:
                stats[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return traced

    def count_rules(self, fn):
        """Wrap a family rule so array elements passed to it are counted."""
        stats = self.stats

        def rule(x):
            if self.enabled:
                stats[RULE_ELEMENTS] += getattr(x, "size", 1)
            return fn(x)

        return rule

    def instrument_family(self, fam):
        """Count elements passed to the family's w_fn/mu_fn rules, through
        the family's own attributes and those of its ends. Evaluations made
        inside sigma rules (closures over the raw rules) are not counted."""
        for attr in ("w_fn", "mu_fn"):
            if hasattr(fam, attr):
                setattr(fam, attr, self.count_rules(getattr(fam, attr)))
        for side in ("pos", "neg"):
            rules = getattr(fam, side, None)
            if isinstance(rules, dict):
                setattr(fam, side, dict(
                    rules, w_fn=self.count_rules(rules["w_fn"]),
                    mu_fn=self.count_rules(rules["mu_fn"])))
        for end in fam.ends():
            end.w_fn = self.count_rules(end.w_fn)
            end.mu_fn = self.count_rules(end.mu_fn)
        return fam

    # -- install / uninstall --------------------------------------------------

    def install(self):
        """Wrap every target, rebind it wherever iglab holds it, and start
        recording."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "iglab" or k.startswith("iglab."))]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                wrapper = self.wrap(name, orig)
                self._installed.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig)
            if name == "gallery.build_family":
                wrapper = self._instrumenting(wrapper)
            self._rebind(modules, orig, wrapper)
        # golden-claim checkers are reached through the GOLDEN_RUNS table
        runs = sys.modules["iglab.gallery"].GOLDEN_RUNS
        self._rebind(modules, runs, [
            (label, name, params, self.wrap("gallery.checks", checker))
            for label, name, params, checker in runs])
        self.enabled = True

    def _rebind(self, modules, orig, new):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._installed.append((mod, key, orig))
                    setattr(mod, key, new)

    def _instrumenting(self, build):
        def build_family(*args, **kwargs):
            return self.instrument_family(build(*args, **kwargs))
        return build_family

    def uninstall(self):
        self.enabled = False
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed = []

    # -- results --------------------------------------------------------------

    def take(self):
        """Return (stats, spans) recorded since the last take, and reset."""
        stats, spans = dict(self.stats), list(self.spans)
        self.stats.clear()
        self.spans.clear()
        return stats, spans


def known_stat(metric):
    """True if a traced pass can record this per-layer metric name."""
    if metric == RULE_ELEMENTS:
        return True
    span, _, stat = metric.rpartition(".")
    names = {name for name, _, _ in TARGETS} | {
        "gallery.checks", "gallery.run_gallery", "bench.small_graph"}
    counters = {f"{n}.{c[0]}" for n, c in COUNTERS.items()}
    return span in names and (stat in ("s", "self_s", "calls")
                              or metric in counters)
