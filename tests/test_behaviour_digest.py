"""The quick-budget gallery classifications, pinned by their sha256.

tests/data/gallery_quick_sha256.json maps every golden run label to the
sha256 of json.dumps(classification, sort_keys=True) at budget "quick".
A change meant to keep behaviour keeps every digest. A change that alters
classifications on purpose regenerates the file, from the repository
root, with

    PYTHONPATH=src python tests/test_behaviour_digest.py > tests/data/gallery_quick_sha256.json

and says in its description which runs changed and why.
"""

import hashlib
import json
from pathlib import Path

from iglab.gallery import run_gallery

DATA = Path(__file__).parent / "data" / "gallery_quick_sha256.json"


def quick_digests() -> dict:
    return {rec.label: hashlib.sha256(json.dumps(
                rec.classification, sort_keys=True).encode()).hexdigest()
            for rec in run_gallery(budget="quick").records}


def test_quick_gallery_classifications_unchanged():
    want = json.loads(DATA.read_text())
    got = quick_digests()
    assert sorted(got) == sorted(want)
    changed = sorted(label for label in want if got[label] != want[label])
    assert not changed, f"classification changed for {changed}"


if __name__ == "__main__":
    print(json.dumps(quick_digests(), indent=1, sort_keys=True))
