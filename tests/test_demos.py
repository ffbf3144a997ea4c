"""The quick demos run to completion against the current public API.

Demo 03 writes its maps into a temporary directory. Demo 04 stays manual:
it trains for about a minute and a half.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rrnet

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(rrnet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "name", ["01_autodiff_and_optimizer", "02_graph_reasoning", "05_metrics_tour"]
)
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_attention_maps_demo_writes_its_images(tmp_path):
    out = tmp_path / "maps"
    run_demo("03_attention_maps", tmp_path, str(out))
    assert list(tmp_path.iterdir()) == [out]
    assert sorted(f.name for f in out.iterdir()) == sorted([
        "input.ppm", "mask.pgm", "descriptor_avg.pgm", "descriptor_max.pgm", "att_left.pgm",
        "att_right.pgm", "att_fused.pgm", "att_only_left.pgm", "att_only_right.pgm",
    ])
    for f in out.iterdir():
        assert f.read_bytes()[:2] == (b"P6" if f.suffix == ".ppm" else b"P5")
