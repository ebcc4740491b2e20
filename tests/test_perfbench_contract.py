"""The benchmark's tracer still fits the package.

perfbench/tracing.py wraps iglab functions and methods by name from
outside src/, so a rename in src/ breaks the traced benchmark run without
failing any other test. This test loads the tracer (it reads only that
file), installs it, runs a small traced gallery, and checks that every
per-layer metric the benchmark declares is one the tracer can record.
"""

import importlib.util
import json
import os
import sys

import iglab
from iglab import gallery

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in an iglab module, and every attribute of the
    classes the tracer wraps methods on."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "iglab" or name.startswith("iglab.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (iglab.graphs.RayFamily, iglab.graphs.LineFamily,
                iglab.graphs.End, iglab.graphs.WeightedGraph,
                iglab.metrics.PathMetric, gallery.StarFamily):
        out.update({(cls, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_fits_the_package():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()      # every TARGETS entry must resolve
        fam = tracer.instrument_family(gallery.build_family("ex5.4"))
        fam.truncate(8)
        res = gallery.run_gallery(["ex5.1", "a5.1"], budget="quick")
    finally:
        tracer.uninstall()
    assert [rec.label for rec in res.records] == ["ex5.1", "a5.1"]
    assert all(rec.error is None for rec in res.records)
    stats, spans = tracer.take()
    assert stats[tracing.RULE_ELEMENTS] > 0
    names = {span[1] for span in spans}
    assert {"graphs.truncate", "potential.boundary_capacity"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_known_stat_accepts_the_declared_per_layer_metrics():
    tracing = _load_tracing()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    unknown = [name for name in declared
               if name != "trace.overhead_s" and not tracing.known_stat(name)]
    assert unknown == []
