"""End-to-end output bytes against tests/golden_digests.json.

The digests are written only by `python tests/make_golden_digests.py`; a
change that moves them lists each changed digest, with its reason. A
mismatch names the first op of the training-sample walk whose output
differs, then the first differing artifact.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def mismatches(now: dict, recorded: dict) -> list[str]:
    """The first differing op as "index name shape", then the first
    differing artifact or leaf gradient ("grad.<name>"); empty when the
    bytes match."""
    found = []
    for got, want in itertools.zip_longest(now["ops"], recorded["ops"]):
        if got != want:
            index, name, shape, _ = (want or got).split()
            found.append(f"first differing op: {index} {name} {shape}")
            break
    artifacts = [(now["digests"], recorded["digests"], ""), (now["leaf_grads"], recorded["leaf_grads"], "grad.")]
    changed = [
        prefix + name
        for new, old, prefix in artifacts
        for name in dict.fromkeys([*old, *new])
        if new.get(name) != old.get(name)
    ]
    if changed:
        found.append(f"first differing artifact: {changed[0]}; {len(changed)} differ")
    return found


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
    assert not mismatches(now, recorded), "; ".join(mismatches(now, recorded))


def test_a_mismatch_names_the_first_differing_op_and_artifact():
    recorded = {
        "ops": ["0 conv2d (4,4,2) aa", "1 channel_pool (4,4,2) bb", "2 relu (4,4,2) cc"],
        "digests": {"predict.64": "x", "eval.pr.csv": "y"},
        "leaf_grads": {"head.w": "z"},
    }
    now = {
        "ops": ["0 conv2d (4,4,2) aa", "1 channel_pool (4,4,2) b0", "2 relu (4,4,2) c0"],
        "digests": {"predict.64": "x", "eval.pr.csv": "y0"},
        "leaf_grads": {"head.w": "z0"},
    }
    assert mismatches(recorded, recorded) == []
    assert mismatches(now, recorded) == [
        "first differing op: 1 channel_pool (4,4,2)",
        "first differing artifact: eval.pr.csv; 2 differ",
    ]
    fewer = dict(recorded, ops=recorded["ops"][:1], leaf_grads={})
    assert mismatches(fewer, recorded) == [
        "first differing op: 1 channel_pool (4,4,2)",
        "first differing artifact: grad.head.w; 1 differ",
    ]
