"""End-to-end output bytes against tests/golden_digests.json.

The digests are written only by `python tests/make_golden_digests.py`; a
change that moves them lists each changed digest, with its reason.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def test_artifacts_match_the_golden_digests():
    recorded = json.loads((HERE / "golden_digests.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "make_golden_digests.py"), "--print"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    now = json.loads(proc.stdout)
    if now["environment"] != recorded["environment"]:
        pytest.skip(f"digests were recorded under {recorded['environment']}, this is {now['environment']}")
    assert list(now["digests"]) == list(recorded["digests"])
    changed = [name for name, digest in recorded["digests"].items() if now["digests"][name] != digest]
    assert not changed, f"first changed artifact: {changed[0]}; all changed: {changed}"
