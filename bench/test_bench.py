"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import rrnet  # noqa: E402
import run  # noqa: E402
from checks import (  # noqa: E402
    check_losses,
    check_map,
    check_pgm,
    check_reference,
    check_report,
    check_same_pgm,
)
from tracer import Tracer, install, summarize  # noqa: E402
from workloads import Cli64, Eval224, Infer224, Stats, Train64  # noqa: E402


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = run.tail([float(x) for x in range(30, 0, -1)])
    assert (value, n) == (20.0, 30) and pct == pytest.approx(200 / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, "loop", 1, 0],
        ["inner", 1.0, 4.0, 0, "loop", 1, 8],
        ["inner", 5.0, 6.0, 0, "loop", 1, 8],
        ["leaf", 2.0, 3.0, 1, "loop", 1, 0],
        ["outer", 0.0, 1.0, -1, "setup", 0, 0],
    ]
    s = summarize(spans, "loop")
    assert s["outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0, "nbytes": 0}
    assert s["inner"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0, "nbytes": 16}
    assert s["leaf"]["self_s"] == 1.0


def test_wrappers_replace_names_imported_by_other_modules_and_restore():
    import rrnet.attention
    import rrnet.network
    import rrnet.training

    originals = (rrnet.network.conv2d, rrnet.training.predict, rrnet.Tensor.backward)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert rrnet.network.conv2d is rrnet.attention.conv2d is not originals[0]
        assert rrnet.training.predict is rrnet.predict is not originals[1]
        cfg = rrnet.NetworkConfig(input_size=(64, 64))
        params = rrnet.init_network_params(cfg, 0)
        tracer.phase = "loop"
        rrnet.predict(rrnet.Tensor(np.full((64, 64, 3), 0.5, np.float32)), params, cfg)
        tracer.phase = None
    finally:
        uninstall()
    assert (rrnet.network.conv2d, rrnet.training.predict, rrnet.Tensor.backward) == originals
    names = set(summarize(tracer.spans, "loop"))
    assert {"network.predict", "graph.srr.s3", "graph.crr.s5", "attention.pma.s1"} <= names
    assert "attention.pma.s2" in names
    assert {"tensor.conv2d.k3s2", "tensor.conv2d.k7s1", "tensor.conv2d.k1s1"} <= names
    assert "network.init_network_params" not in names  # called while no phase was set


def test_checks_reject_corrupted_outputs():
    good = np.full((4, 4), 0.5, np.float32)
    assert check_map(good, (4, 4)) is None
    assert check_map(good, (4, 5)) is not None
    assert check_map(np.where(np.eye(4) > 0, np.nan, good), (4, 4)) is not None
    assert check_map(np.where(np.eye(4) > 0, 1.0, good), (4, 4)) is not None

    pgm = b"P5\n3 2\n255\n" + bytes(6)
    assert check_pgm(pgm, 3, 2) is None
    assert check_pgm(pgm[:-1], 3, 2) is not None
    assert check_pgm(pgm, 2, 3) is not None
    assert check_pgm(b"P6" + pgm[2:], 3, 2) is not None

    assert check_losses([0.2, 0.1], []) is None
    assert check_losses([0.2, math.nan], []) is not None
    assert check_losses([0.2, 0.1], [0.2, 0.1, 0.05]) is None
    assert check_losses([0.2, 0.1, 0.05, 0.01], [0.2, 0.1]) is None
    assert check_losses([0.2, 0.11], [0.2, 0.1, 0.05]) is not None
    assert check_reference("x", [1.00001], [1.0], 1e-4) is None
    assert check_reference("x", [1.001], [1.0], 1e-4) is not None
    assert check_reference("x", [0.500005], [0.5], atol=1e-5) is None
    assert check_reference("x", [0.50002], [0.5], atol=1e-5) is not None

    want = np.full((10, 10), 100, np.int16)
    assert check_same_pgm(b"P5\n10 10\n255\n" + bytes([101] + [100] * 99), want) is None
    assert check_same_pgm(b"P5\n10 10\n255\n" + bytes([102] + [100] * 99), want) is not None
    assert check_same_pgm(b"P5\n10 10\n255\n" + bytes([101] * 2 + [100] * 98), want) is not None


def test_check_report_rejects_a_wrong_image_mae():
    agg = {"count": 2, "mae": 0.1, "f_beta_max": 0.9, "e_m": 0.8, "s_m": 0.7, "skipped_for_f_pr": ["b"]}
    rows = [{"id": "a", "mae": 0.1}, {"id": "b", "mae": 0.1}]
    text = json.dumps({"aggregate": agg, "per_image": rows})
    assert check_report(text, {"a": 0.1, "b": 0.1}, ["b"]) is None
    assert check_report(text, {"a": 0.1, "b": 0.1 + 1e-6}, ["b"]) is not None
    assert check_report(text, {"a": 0.1, "b": 0.1}, []) is not None
    assert check_report(text[:-2], {"a": 0.1, "b": 0.1}, ["b"]) is not None


def _run_loop(wl, seconds: float) -> Stats:
    wl.prepare()
    stats = Stats()
    stats.add([], 0, wl.check())
    wl.loop(time.perf_counter() + seconds, stats)
    return stats


def test_a_corrupted_map_counts_as_failed(tmp_path, monkeypatch):
    real = rrnet.predict
    calls = []

    def corrupting_predict(image, params, cfg):
        pred = real(image, params, cfg)
        calls.append(1)
        if len(calls) > 2:  # the check (2 predictions) passes; every measured one is corrupted
            pred.map.data[0, 0] = np.nan
        return pred

    monkeypatch.setattr(rrnet, "predict", corrupting_predict)
    stats = _run_loop(Infer224(3, tmp_path), 0.5)
    assert stats.attempted >= 2 and stats.failed == stats.attempted - 1


def test_a_corrupted_eval_report_counts_as_failed(tmp_path, monkeypatch):
    import rrnet.cli

    real = rrnet.cli.report_to_json
    calls = []

    def corrupting_report(report):
        calls.append(1)
        if len(calls) > 1:
            report.per_image[0].mae += 1e-3
        return real(report)

    monkeypatch.setattr(rrnet.cli, "report_to_json", corrupting_report)
    stats = _run_loop(Eval224(3, tmp_path), 0.5)
    assert stats.attempted >= 2 and stats.failed == stats.attempted - 1


def test_train_reference_rejects_a_wrong_gradient(tmp_path, monkeypatch):
    real = rrnet.optim.Adam.step

    def ascending_step(self, grad_scale=None):
        return real(self, grad_scale=-grad_scale)

    wl = Train64(0, tmp_path)
    assert wl.check() is None
    monkeypatch.setattr(rrnet.optim.Adam, "step", ascending_step)
    assert wl.check() is not None


def test_infer_reference_rejects_a_perturbed_conv(tmp_path, monkeypatch):
    import rrnet.attention
    import rrnet.network

    real = rrnet.network.conv2d

    def scaled_conv2d(x, w, b=None, stride=1):  # every conv output 0.1% too large
        y = real(x, w, b, stride)
        y.data = y.data * np.float32(1.001)
        return y

    wl = Infer224(0, tmp_path)
    wl.prepare()
    assert wl.check() is None
    for module in (rrnet.network, rrnet.attention):
        monkeypatch.setattr(module, "conv2d", scaled_conv2d)
    wl.seen.clear()
    assert wl.check() is not None


def test_cli_counts_a_checkpoint_that_was_not_loaded_as_failed(tmp_path):
    wl = Cli64(5, tmp_path)
    wl.prepare()
    assert wl.check() is None
    # what rrnet infer computes when _params_from_checkpoint keeps its
    # seed-0 initial parameters instead of the checkpoint's entries
    rrnet.save_checkpoint(rrnet.init_network_params(wl.CFG, seed=0), wl.CFG, tmp_path / "model.ck")
    wl.seen.clear()
    stats = Stats()
    wl.loop(time.perf_counter() + 1.0, stats)
    assert stats.attempted >= 1 and stats.failed == stats.attempted


def test_a_failing_set_up_counts_as_failed(tmp_path, monkeypatch):
    wl = Eval224(3, tmp_path)
    wl.prepare()
    monkeypatch.setattr(Eval224, "masks", classmethod(lambda cls, seed: 1 / 0))
    stats = Stats()
    setup_times = run.measure(wl, 0.5, stats)
    assert setup_times == [] and stats.failed == run.SLICES * run.SETUPS_PER_SLICE
    assert stats.attempted > stats.failed  # the loop still ran on the prepared pairs
