"""The gallery's classifications and golden checks, pinned by their sha256.

tests/data/gallery_quick_sha256.json and gallery_standard_sha256.json map
every golden run label to the sha256 of json.dumps(classification,
sort_keys=True) at budgets "quick" and "standard".
tests/data/gallery_checks_sha256.json maps every label to the sha256 of
json.dumps(checks, sort_keys=True) at budgets "quick" and "standard".
tests/data/gallery_deep_sha256.json maps every label to the sha256 of its
classification and of its checks at budget "deep".
A change meant to keep behaviour keeps every digest. A change that alters
classifications or checks on purpose regenerates the four files, from the
repository root, with

    PYTHONPATH=src python tests/test_behaviour_digest.py

and says in its description which runs changed and why.
"""

import functools
import hashlib
import json
from pathlib import Path

from iglab.gallery import run_gallery

DATA = Path(__file__).parent / "data"
QUICK = DATA / "gallery_quick_sha256.json"
STANDARD = DATA / "gallery_standard_sha256.json"
CHECKS = DATA / "gallery_checks_sha256.json"
DEEP = DATA / "gallery_deep_sha256.json"


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@functools.cache
def _records(budget: str) -> tuple:
    return tuple(run_gallery(budget=budget).records)


def classification_digests(budget: str) -> dict:
    return {rec.label: _sha256(rec.classification)
            for rec in _records(budget)}


def checks_digests() -> dict:
    out = {}
    for budget in ("quick", "standard"):
        for rec in _records(budget):
            out.setdefault(rec.label, {})[budget] = _sha256(rec.checks)
    return out


def deep_digests() -> dict:
    return {rec.label: {"classification": _sha256(rec.classification),
                        "checks": _sha256(rec.checks)}
            for rec in _records("deep")}


def _changed(got: dict, want: dict) -> list:
    assert sorted(got) == sorted(want)
    return sorted(label for label in want if got[label] != want[label])


def test_quick_gallery_classifications_unchanged():
    changed = _changed(classification_digests("quick"),
                       json.loads(QUICK.read_text()))
    assert not changed, f"classification changed for {changed}"


def test_standard_gallery_classifications_unchanged():
    changed = _changed(classification_digests("standard"),
                       json.loads(STANDARD.read_text()))
    assert not changed, f"classification changed for {changed}"


def test_gallery_checks_unchanged():
    changed = _changed(checks_digests(), json.loads(CHECKS.read_text()))
    assert not changed, f"golden checks changed for {changed}"


def test_deep_gallery_unchanged():
    changed = _changed(deep_digests(), json.loads(DEEP.read_text()))
    assert not changed, f"deep classification or checks changed for {changed}"


if __name__ == "__main__":
    for path, digests in ((QUICK, classification_digests("quick")),
                          (STANDARD, classification_digests("standard")),
                          (CHECKS, checks_digests()),
                          (DEEP, deep_digests())):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
