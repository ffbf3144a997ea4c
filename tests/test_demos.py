"""The quick demos run to completion against the current public API.

Demos 03 and 04 stay manual: 03 writes maps into demos/out and 04 trains
for about a minute and a half.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rrnet

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["01_autodiff_and_optimizer", "02_graph_reasoning", "05_metrics_tour"]
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rrnet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
