"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import rrnet
from rrnet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from rrnet.dataio import load_checkpoint, read_pgm, save_checkpoint, write_pgm
from rrnet.network import NetworkConfig, init_network_params

TINY_NET = ["--stage-channels", "2,2,3,3,3", "--decoder-width", "4"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def train_with_config(tmp_path, capsys, text, *flags):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("stage_channels=2,2,3,3,3\ndecoder_width=4\ninput_size=32\n" + text)
    return run(
        capsys, "train", "--synthetic", "1", "--config", str(cfgfile),
        "--out", str(tmp_path / "m.ck"), *flags,
    )


def replace_config_blob(ck, blob: bytes) -> None:
    data = ck.read_bytes()
    cfg_len = int.from_bytes(data[12:16], "little")
    ck.write_bytes(data[:12] + len(blob).to_bytes(4, "little") + blob + data[16 + cfg_len :])


def poison_entry(ck, name: str, value: float) -> None:
    """Overwrite the first value of checkpoint entry `name`, with a valid checksum."""
    data = bytearray(ck.read_bytes())
    key = struct.pack("<H", len(name)) + name.encode()
    pos = data.index(key) + len(key)
    ndim = data[pos]
    start = pos + 1 + 4 * ndim
    end = start + 4 * int(np.prod(struct.unpack_from(f"<{ndim}I", data, pos + 1)))
    struct.pack_into("<f", data, start, value)
    struct.pack_into("<I", data, end, zlib.crc32(data[start:end]))
    ck.write_bytes(bytes(data))


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "4", "--seed", "3", "--size", "32")
        assert code == EXIT_OK
        assert (tmp_path / "d" / "manifest.txt").exists()
        assert len(list((tmp_path / "d" / "images").glob("*.ppm"))) == 4
        assert len(list((tmp_path / "d" / "masks").glob("*.pgm"))) == 4


class TestTrain:
    def test_zero_iters_checkpoint_equals_initialization(self, tmp_path, capsys):
        ck = tmp_path / "model.ck"
        code, out, _ = run(
            capsys, "train", "--synthetic", "2", "--iters", "0", "--seed", "4",
            "--out", str(ck), *TINY_NET,
        )
        assert code == EXIT_OK
        # no loss lines in the log, just the final save message
        lines = [ln for ln in out.splitlines() if "\t" in ln]
        assert lines == []
        entries, cfg = load_checkpoint(ck)
        ss = np.random.SeedSequence(4)
        seed_params, _ = ss.spawn(2)
        fresh = init_network_params(cfg, np.random.default_rng(seed_params))
        for name, p in fresh.named_parameters():
            assert np.array_equal(entries[name], p.data), name

    def test_identical_invocations_byte_identical_checkpoints(self, tmp_path, capsys):
        args = [
            "train", "--synthetic", "2", "--iters", "4", "--seed", "11",
            *TINY_NET,
        ]
        code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a.ck"))
        code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b.ck"))
        assert code1 == code2 == EXIT_OK
        assert (tmp_path / "a.ck").read_bytes() == (tmp_path / "b.ck").read_bytes()

    def test_non_finite_parameters_exit_numeric_without_a_checkpoint(self, tmp_path, capsys, monkeypatch):
        real = rrnet.cli.train_model

        def diverging(*args, **kwargs):
            result = real(*args, **kwargs)
            result.params.head[2].b.data[:] = np.inf
            return result

        monkeypatch.setattr(rrnet.cli, "train_model", diverging)
        ck = tmp_path / "m.ck"
        code, _, err = run(
            capsys, "train", "--synthetic", "1", "--iters", "1", "--out", str(ck), *TINY_NET,
        )
        assert code == EXIT_NUMERIC
        assert err.startswith("numerical failure:") and "'head.c2.b'" in err
        assert len(err.splitlines()) == 1
        assert not ck.exists()

    def test_log_lines_tab_separated(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "train", "--synthetic", "2", "--iters", "2", "--seed", "1",
            "--out", str(tmp_path / "m.ck"), *TINY_NET,
        )
        assert code == EXIT_OK
        rows = [ln.split("\t") for ln in out.splitlines() if "\t" in ln]
        assert rows[0][0] == "0"
        assert rows[-1][0] == "2"
        for r in rows:
            float(r[1]), float(r[2])

    def test_closed_stdout_still_saves_and_exits_quietly(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line is written
        env = dict(os.environ, PYTHONPATH=str(Path(rrnet.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)  # a pipe is block-buffered by default
        ck = tmp_path / "m.ck"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rrnet.cli", "train", "--synthetic", "2", "--iters", "2",
                 "--size", "32", "--out", str(ck), *TINY_NET],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == b""
        assert ck.exists()

    def test_manifest_training(self, tmp_path, capsys):
        run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "2", "--seed", "0", "--size", "32")
        code, _, _ = run(
            capsys, "train", "--manifest", str(tmp_path / "d" / "manifest.txt"),
            "--iters", "1", "--out", str(tmp_path / "m.ck"), *TINY_NET,
        )
        assert code == EXIT_OK

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "stage_channels=2,2,3,3,3\ndecoder_width=4\ninput_size=32\n"
            "iterations=1\nseed=6\n# comment line\n"
        )
        ck = tmp_path / "m.ck"
        code, _, _ = run(
            capsys, "train", "--synthetic", "2", "--config", str(cfgfile), "--out", str(ck)
        )
        assert code == EXIT_OK
        _, cfg = load_checkpoint(ck)
        assert cfg.input_size == (32, 32)
        assert cfg.decoder_width == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("nonsense=1\n")
        code, _, err = run(
            capsys, "train", "--synthetic", "1", "--config", str(cfgfile),
            "--out", str(tmp_path / "m.ck"),
        )
        assert code == EXIT_USAGE
        assert "nonsense" in err

    def test_bad_boolean_config_value_is_usage_error(self, tmp_path, capsys):
        code, _, err = train_with_config(tmp_path, capsys, "iterations=0\naugment=banana\n")
        assert code == EXIT_USAGE
        assert err == "usage error: config key 'augment' expects a boolean, got 'banana'\n"

    def test_bad_integer_config_value_names_its_key(self, tmp_path, capsys):
        code, _, err = train_with_config(tmp_path, capsys, "iterations=0\nseed=x\n")
        assert code == EXIT_USAGE
        assert "'seed'" in err and len(err.splitlines()) == 1

    def test_flags_override_config_training_keys(self, tmp_path, capsys):
        code, out, _ = train_with_config(
            tmp_path, capsys, "iterations=3\nlr_initial=1e-3\naugment=true\n", "--iters", "0"
        )
        assert code == EXIT_OK
        assert [ln for ln in out.splitlines() if "\t" in ln] == []

    @pytest.mark.parametrize("text", ["batch_size=0\n", "lr_initial=nan\n", "lr_final=-1\n"])
    def test_out_of_range_config_value_is_usage_error(self, tmp_path, capsys, text):
        code, _, err = train_with_config(tmp_path, capsys, text)
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: {text.split('=')[0]} must be") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    @pytest.mark.parametrize(
        "flags", [["--iters", "-5"], ["--batch", "0"], ["--lr", "-1"], ["--lr", "nan"], ["--final-lr", "inf"]]
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags):
        code, _, err = run(
            capsys, "train", "--synthetic", "1", "--iters", "1", "--out", str(tmp_path / "m.ck"),
            *TINY_NET, *flags,
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    def test_bad_stage_channels_names_the_flag(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--synthetic", "1", "--iters", "0", "--out", str(tmp_path / "m.ck"),
            "--stage-channels", "2,a,3,3,3",
        )
        assert code == EXIT_USAGE
        assert "--stage-channels" in err and "2,a,3,3,3" in err and len(err.splitlines()) == 1

    def test_manifest_pair_size_mismatch_is_data_error(self, tmp_path, capsys):
        run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "1", "--seed", "0", "--size", "64")
        mask = next((tmp_path / "d" / "masks").glob("*.pgm"))
        write_pgm(mask, np.zeros((32, 32)))
        code, _, err = run(
            capsys, "train", "--manifest", str(tmp_path / "d" / "manifest.txt"),
            "--iters", "0", "--out", str(tmp_path / "m.ck"), *TINY_NET,
        )
        assert code == EXIT_DATA
        assert err.startswith("data error: manifest line 1:") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    def test_ablation_toggles(self, tmp_path, capsys):
        ck = tmp_path / "m.ck"
        code, _, _ = run(
            capsys, "train", "--synthetic", "1", "--iters", "0", "--out", str(ck),
            "--no-pma", "--no-srr", "--no-crr", *TINY_NET,
        )
        assert code == EXIT_OK
        _, cfg = load_checkpoint(ck)
        assert not (cfg.use_pma or cfg.use_srr or cfg.use_crr)

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--out", str(tmp_path / "m.ck"))
        assert code == EXIT_USAGE


class TestInfer:
    @pytest.fixture
    def trained(self, tmp_path, capsys):
        run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "2", "--seed", "2", "--size", "64")
        ck = tmp_path / "m.ck"
        run(
            capsys, "train", "--synthetic", "2", "--iters", "2", "--seed", "2",
            "--out", str(ck), *TINY_NET,
        )
        return tmp_path, ck

    def test_output_dims_match_input(self, trained, capsys):
        tmp_path, ck = trained
        img = next((tmp_path / "d" / "images").glob("*.ppm"))
        out = tmp_path / "sal.pgm"
        code, stdout, _ = run(capsys, "infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(out))
        assert code == EXIT_OK
        assert "ms/image" in stdout
        assert read_pgm(out).shape == (64, 64)

    def test_infer_twice_identical_bytes(self, trained, capsys):
        tmp_path, ck = trained
        img = next((tmp_path / "d" / "images").glob("*.ppm"))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run(capsys, "infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(a))
        run(capsys, "infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(tmp_path / "nope.ck"),
            "--input", "x.ppm", "--output", "y.pgm",
        )
        assert code == EXIT_DATA

    def test_checkpoint_with_bad_config_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "model.ck"
        save_checkpoint([], NetworkConfig(), ck)
        replace_config_blob(ck, b"bogus=1\n")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error:") and "bogus" in err
        assert len(err.splitlines()) == 1

    def test_checkpoint_config_bad_value_names_its_key(self, tmp_path, capsys):
        ck = tmp_path / "model.ck"
        save_checkpoint([], NetworkConfig(), ck)
        replace_config_blob(ck, b"decoder_width=wide\n")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error:") and "'decoder_width'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name,value", [("head.c2.b", np.nan), ("backbone.s1.c0.w", -np.inf)])
    def test_non_finite_checkpoint_entry_is_data_error(self, trained, capsys, name, value):
        tmp_path, ck = trained
        poison_entry(ck, name, value)
        img = next((tmp_path / "d" / "images").glob("*.ppm"))
        out = tmp_path / "sal.pgm"
        code, _, err = run(capsys, "infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(out))
        assert code == EXIT_DATA
        assert err.startswith("data error:") and f"'{name}'" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_corrupt_image_is_data_error(self, trained, capsys):
        tmp_path, ck = trained
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n8 8\n255\n" + bytes(10))  # truncated
        code, _, err = run(capsys, "infer", "--checkpoint", str(ck), "--input", str(bad), "--output", str(tmp_path / "o.pgm"))
        assert code == EXIT_DATA
        assert "truncated" in err


class TestEval:
    def _write_pair(self, d1, d2, name, pred, gt):
        write_pgm(d1 / f"{name}.pgm", pred)
        write_pgm(d2 / f"{name}.pgm", gt)

    def test_identity_evaluation(self, tmp_path, capsys, rng):
        pred_d = tmp_path / "pred"
        gt_d = tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        for i in range(3):
            gt = (rng.uniform(size=(16, 16)) < 0.3).astype(np.float64)
            gt[0, 0] = 1.0
            self._write_pair(pred_d, gt_d, f"s{i}", gt, gt)
        report = tmp_path / "r.json"
        curve = tmp_path / "c.csv"
        code, out, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(report), "--prcurve", str(curve),
        )
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        agg = doc["aggregate"]
        assert agg["mae"] == pytest.approx(0.0, abs=1e-6)
        assert agg["f_beta_max"] == pytest.approx(1.0, abs=1e-6)
        assert agg["s_m"] == pytest.approx(1.0, abs=1e-6)
        assert agg["e_m"] == pytest.approx(1.0, abs=1e-6)
        lines = curve.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) == 257

    def test_inverted_predictions_mae_one(self, tmp_path, capsys, rng):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        gt[0, 0] = 1.0
        self._write_pair(pred_d, gt_d, "x", 1.0 - gt, gt)
        report = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(report), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert json.loads(report.read_text())["aggregate"]["mae"] == pytest.approx(1.0)

    def test_hand_computed_confusion_counts(self, tmp_path, capsys):
        # 4x4 fixture, worked out by hand:
        # gt marks the left 2x4 block (8 positives)
        # pred: 6 of those at 200/255, two at 0; plus 2 false positives at 200/255
        gt = np.zeros((4, 4))
        gt[:, :2] = 1.0
        pred = np.zeros((4, 4))
        pred[:3, :2] = 200 / 255.0  # 6 true positives
        pred[0, 2] = pred[1, 2] = 200 / 255.0  # 2 false positives
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        self._write_pair(pred_d, gt_d, "hand", pred, gt)
        report = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(report), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        curve = (tmp_path / "c.csv").read_text().splitlines()
        # at threshold 100/255: TP=6 FP=2 FN=2 -> P=0.75 R=0.75
        t, p, r = curve[1 + 100].split(",")
        assert float(p) == pytest.approx(0.75, abs=1e-9)
        assert float(r) == pytest.approx(0.75, abs=1e-9)

    def test_unpaired_files_listed_as_data_error(self, tmp_path, capsys, rng):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        write_pgm(pred_d / "only_pred.pgm", rng.uniform(size=(4, 4)))
        write_pgm(gt_d / "only_gt.pgm", (rng.uniform(size=(4, 4)) < 0.5).astype(np.float64))
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_DATA
        assert "only_pred" in err and "only_gt" in err

    def test_shape_mismatch_is_data_error_naming_sample(self, tmp_path, capsys, rng):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        write_pgm(pred_d / "odd.pgm", rng.uniform(size=(32, 32)))
        write_pgm(gt_d / "odd.pgm", (rng.uniform(size=(64, 64)) < 0.5).astype(np.float64))
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_DATA
        assert "odd" in err and "differ in shape" in err
        assert len(err.splitlines()) == 1

    def test_later_shape_mismatch_writes_no_report(self, tmp_path, capsys, rng):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        self._write_pair(pred_d, gt_d, "a", gt, gt)
        write_pgm(pred_d / "b.pgm", rng.uniform(size=(8, 8)))
        write_pgm(gt_d / "b.pgm", np.zeros((8, 9)))
        report, curve = tmp_path / "r.json", tmp_path / "c.csv"
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(report), "--prcurve", str(curve),
        )
        assert code == EXIT_DATA and "'b'" in err
        assert not report.exists() and not curve.exists()

    def test_pairs_are_read_and_scored_one_at_a_time(self, tmp_path, capsys, rng, monkeypatch):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        for i in range(3):
            gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
            self._write_pair(pred_d, gt_d, f"s{i}", rng.uniform(size=(8, 8)), gt)
        events = []
        read_pgm_, evaluate_pair_ = rrnet.dataio.read_pgm, rrnet.metrics.evaluate_pair

        def logged(tag, fn):
            def call(*args):
                events.append(tag)
                return fn(*args)
            return call

        monkeypatch.setattr(rrnet.dataio, "read_pgm", logged("read", read_pgm_))
        monkeypatch.setattr(rrnet.metrics, "evaluate_pair", logged("score", evaluate_pair_))
        code, _, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert events == ["read", "score"] * 3

    def test_all_background_gt_warned_and_excluded(self, tmp_path, capsys, rng):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        gt[0, 0] = 1.0
        self._write_pair(pred_d, gt_d, "ok", gt, gt)
        self._write_pair(pred_d, gt_d, "empty", np.zeros((8, 8)), np.zeros((8, 8)))
        report = tmp_path / "r.json"
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(report), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert "empty" in err and "no foreground" in err
        doc = json.loads(report.read_text())
        assert doc["aggregate"]["skipped_for_f_pr"] == ["empty"]

    def test_rrnet_threads_env(self, tmp_path, capsys, rng, monkeypatch):
        monkeypatch.setenv("RRNET_THREADS", "3")
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        for i in range(4):
            gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
            gt[0, 0] = 1.0
            self._write_pair(pred_d, gt_d, f"s{i}", gt, gt)
        code, _, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK


    def test_bad_rrnet_threads_is_usage_error_naming_it(self, tmp_path, capsys, rng, monkeypatch):
        monkeypatch.setenv("RRNET_THREADS", "abc")
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        gt[0, 0] = 1.0
        self._write_pair(pred_d, gt_d, "s0", gt, gt)
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error:") and "RRNET_THREADS" in err
        assert len(err.splitlines()) == 1


class TestSelfCheck:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, "self-check", "--trials", "2")
        assert code == EXIT_OK
        assert "checks passed" in out
        assert "FAIL" not in out


class TestUsage:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE
