"""The gallery's classifications and golden checks, pinned as JSON records.

tests/data/gallery_quick.json, gallery_standard.json and gallery_deep.json
map every golden run label to {"classification": ..., "checks": ...} at
that budget, written with sorted keys and indent=1, so a change to a
record shows in a diff. A run's record matches when its canonical text,
json.dumps(..., sort_keys=True), equals the file's: floats round-trip
through repr, so -0.0 against 0.0, 1 against 1.0 or one ulp all fail.
A failure names the first key path that differs, with both values.
A change meant to keep behaviour keeps every file. A change that alters
classifications or checks on purpose regenerates the three files, from
the repository root, with

    PYTHONPATH=src python tests/test_behaviour_digest.py

and says in its description which runs changed and why.
"""

import functools
import json
from pathlib import Path

from iglab.gallery import run_gallery

DATA = Path(__file__).parent / "data"


def _path(budget: str) -> Path:
    return DATA / f"gallery_{budget}.json"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@functools.cache
def records(budget: str) -> dict:
    """label -> {"classification", "checks"} of a fresh gallery run, read
    back from its canonical text as the files are."""
    return json.loads(_canonical(
        {rec.label: {"classification": rec.classification,
                     "checks": rec.checks}
         for rec in run_gallery(budget=budget).records}))


def first_difference(got, want, path: str = "") -> str | None:
    """The first key path, in sorted order, where got and want differ as
    canonical JSON, with both values there; None where they agree."""
    if _canonical(got) == _canonical(want):
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path or '/'}: keys {sorted(got)}, want {sorted(want)}"
        pairs = [(f"{path}/{key}", got[key], want[key]) for key in sorted(want)]
    elif isinstance(got, list) and isinstance(want, list) \
            and len(got) == len(want):
        pairs = [(f"{path}/{i}", a, b) for i, (a, b) in enumerate(zip(got,
                                                                      want))]
    else:
        return f"{path or '/'}: got {_canonical(got)}, want {_canonical(want)}"
    return next(diff for sub, a, b in pairs
                if (diff := first_difference(a, b, sub)))


def _pinned(budget: str, part: str) -> tuple:
    """(this run's, the file's) label -> part at budget."""
    want = json.loads(_path(budget).read_text())
    return ({label: rec[part] for label, rec in records(budget).items()},
            {label: rec[part] for label, rec in want.items()})


def test_quick_gallery_classifications_unchanged():
    diff = first_difference(*_pinned("quick", "classification"))
    assert diff is None, f"quick classification changed at {diff}"


def test_standard_gallery_classifications_unchanged():
    diff = first_difference(*_pinned("standard", "classification"))
    assert diff is None, f"standard classification changed at {diff}"


def test_gallery_checks_unchanged():
    for budget in ("quick", "standard"):
        diff = first_difference(*_pinned(budget, "checks"))
        assert diff is None, f"{budget} golden checks changed at {diff}"


def test_deep_gallery_unchanged():
    diff = first_difference(records("deep"),
                            json.loads(_path("deep").read_text()))
    assert diff is None, f"deep classification or checks changed at {diff}"


if __name__ == "__main__":
    for budget in ("quick", "standard", "deep"):
        _path(budget).write_text(
            json.dumps(records(budget), sort_keys=True, indent=1) + "\n")
