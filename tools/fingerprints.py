"""Regenerate ``tests/signatures.json``, the fingerprint of every drive.

    python tools/fingerprints.py

runs the tier-1 suite and the slow tier (``pytest -x -q --runslow``) with
``REPRO_FINGERPRINTS`` set, so each drive records its entry (see
``tests/fingerprint.py``) instead of checking it.  If every test passes,
it rewrites the file and prints the keys added, moved and gone stale,
each with the test that first ran its drive; the file's diff then lists
exactly the drives that moved.  CI never writes the file: tier-1 checks
every drive against it.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILE = ROOT / "tests" / "signatures.json"


def _strip(entry: dict) -> dict:
    return {name: value for name, value in entry.items() if name != "test"}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        written = Path(scratch) / "signatures.json"
        env = {**os.environ, "REPRO_FINGERPRINTS": str(written)}
        pytest = [sys.executable, "-m", "pytest", "-x", "-q", "--runslow"]
        if subprocess.run(pytest, cwd=ROOT, env=env).returncode:
            print(f"a test failed: {FILE.relative_to(ROOT)} is left as it was")
            return 1
        new = json.loads(written.read_text())
    old = json.loads(FILE.read_text()) if FILE.exists() else {}
    kept = new.keys() & old.keys()
    changes = {
        "added": new.keys() - old.keys(),
        "moved": {key for key in kept if _strip(new[key]) != _strip(old[key])},
        "gone stale": old.keys() - new.keys(),
    }
    for change, keys in changes.items():
        for key in sorted(keys):
            print(f"{change}: {key} ({new.get(key, old.get(key))['test']})")
    FILE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    counts = ", ".join(f"{len(keys)} {change}" for change, keys in changes.items())
    print(f"{len(new)} drives: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
