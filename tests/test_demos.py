"""Smoke test: the fast demos run to completion against this package.

classification_gallery.py is left out: it runs the whole gallery, which
test_acceptance's criterion 11 already covers.
"""

import os
import subprocess
import sys

import pytest

import iglab

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")
SRC = os.path.dirname(os.path.dirname(iglab.__file__))


@pytest.mark.parametrize("demo", [
    "capacity_and_polarity.py", "codimension.py",
    "completeness_hopf_rinow.py", "form_identities.py",
    "intrinsic_metrics.py"])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
