"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import argparse
import importlib.util
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import rrnet
from rrnet.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _params_from_checkpoint,
    _UsageError,
    main,
)
from rrnet.dataio import load_checkpoint, read_pgm, save_checkpoint, write_pgm, write_ppm
from rrnet.network import PMA_CHOICES, REASONING_CHOICES, NetworkConfig, init_network_params

ROOT = Path(__file__).resolve().parents[1]
TINY_NET = ["--stage-channels", "2,2,3,3,3", "--decoder-width", "4"]
TINY_CFG = NetworkConfig(stage_channels=(2, 2, 3, 3, 3), decoder_width=4, input_size=(32, 32))


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


def write_one_entry_checkpoint(ck, shape, payload: bytes) -> None:
    """A checkpoint of TINY_CFG with one entry 'w' of any rank and shape,
    whatever the payload's size, and that payload's valid checksum."""
    save_checkpoint({}, TINY_CFG, ck)
    entry = struct.pack("<H", 1) + b"w" + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + payload
    # the empty checkpoint ends with its entry count, which becomes 1
    ck.write_bytes(ck.read_bytes()[:-4] + struct.pack("<I", 1) + entry + struct.pack("<I", zlib.crc32(payload)))


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "4", "--seed", "3", "--size", "32")
        assert code == EXIT_OK
        assert (tmp_path / "d" / "manifest.txt").exists()
        assert len(list((tmp_path / "d" / "images").glob("*.ppm"))) == 4
        assert len(list((tmp_path / "d" / "masks").glob("*.pgm"))) == 4

    @pytest.mark.parametrize("flags", [["--count", "0"], ["--seed", "-1"]])
    def test_refused_run_creates_nothing(self, tmp_path, capsys, flags):
        code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--size", "32", *flags)
        assert code == EXIT_USAGE
        assert out == "" and len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--seed", "-1")
        assert err == "usage error: --seed must be at least 0, got -1\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_names_the_flag(self, tmp_path, capsys, value):
        code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", value)
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: --count must be at least 1, got {value}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("value", ["0", "-32"])
    def test_size_below_one_names_the_flag(self, tmp_path, capsys, value):
        code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--size", value)
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: --size must be at least 1, got {value}\n"
        assert not (tmp_path / "d").exists()

    def test_out_of_memory_ends_in_one_line(self, tmp_path, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(rrnet.dataio, "synth_dataset", too_large)
        code, out, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--size", "100000")
        assert code == EXIT_USAGE and out == ""
        assert err == "out of memory: an allocation failed\n"
        assert not (tmp_path / "d").exists()


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
        for name, p in fresh.items():
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
            result.params["head.c2.b"].data[:] = np.inf
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

    def test_out_of_memory_ends_in_one_line(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 1.46 TiB for an array with shape (2000, 100000000) and data type int64"

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(rrnet.cli, "train_model", too_large)
        ck = tmp_path / "m.ck"
        code, out, err = run(capsys, "train", "--synthetic", "1", "--batch", "100000000", "--out", str(ck), *TINY_NET)
        assert code == EXIT_USAGE
        assert err == f"out of memory: {message}\n"
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

    @pytest.mark.parametrize("text", ["batch_size=0\n", "lr_initial=nan\n", "lr_final=-1\n", "seed=-1\n"])
    def test_out_of_range_config_value_is_usage_error(self, tmp_path, capsys, text):
        code, _, err = train_with_config(tmp_path, capsys, text)
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: {text.split('=')[0]} must be") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--iters", "-5"], ["--batch", "0"], ["--lr", "-1"], ["--lr", "nan"], ["--final-lr", "inf"],
            ["--decoder-width", "0"], ["--decoder-width", "-3"], ["--size", "0"], ["--size", "-32"],
            ["--seed", "-1"],
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags):
        key = {
            "--iters": "iterations", "--batch": "batch_size", "--lr": "lr_initial",
            "--final-lr": "lr_final", "--decoder-width": "decoder_width", "--size": "input_size",
            "--seed": "seed",
        }[flags[0]]
        code, _, err = run(
            capsys, "train", "--synthetic", "1", "--iters", "1", "--out", str(tmp_path / "m.ck"),
            *TINY_NET, *flags,
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: {key} must be") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_synthetic_below_one_names_the_flag(self, tmp_path, capsys, value):
        code, out, err = run(capsys, "train", "--synthetic", value, "--out", str(tmp_path / "m.ck"), *TINY_NET)
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: --synthetic must be at least 1, got {value}\n"
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

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["no_lines", "blank_lines"])
    def test_empty_manifest_is_data_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(text)
        code, _, err = run(capsys, "train", "--manifest", str(manifest), "--iters", "0", "--out", str(tmp_path / "m.ck"))
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and str(manifest) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    def test_ablation_toggles(self, tmp_path, capsys):
        ck = tmp_path / "m.ck"
        code, _, _ = run(
            capsys, "train", "--synthetic", "1", "--iters", "0", "--out", str(ck),
            "--pma", "none", "--reasoning", "none", *TINY_NET,
        )
        assert code == EXIT_OK
        _, cfg = load_checkpoint(ck)
        assert (cfg.pma, cfg.reasoning) == ("none", "none")
        assert cfg.input_size == (64, 64)  # neither --size nor a config file sets it

    @pytest.mark.parametrize(
        "key,value", [("pma", v) for v in PMA_CHOICES] + [("reasoning", v) for v in REASONING_CHOICES]
    )
    def test_ablation_config_key_and_flag_give_the_same_checkpoint(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key}={value}\n")
        args = ["train", "--synthetic", "1", "--iters", "0", "--size", "32", *TINY_NET]
        by_file, by_flag = tmp_path / "file.ck", tmp_path / "flag.ck"
        code_file, _, _ = run(capsys, *args, "--config", str(cfgfile), "--out", str(by_file))
        code_flag, _, _ = run(capsys, *args, f"--{key}", value, "--out", str(by_flag))
        assert code_file == code_flag == EXIT_OK
        assert getattr(load_checkpoint(by_flag)[1], key) == value
        assert by_file.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("key", ["pma", "reasoning"])
    def test_unknown_ablation_value_is_usage_error(self, tmp_path, capsys, key):
        code, _, err = run(
            capsys, "train", "--synthetic", "1", "--iters", "0", "--out", str(tmp_path / "m.ck"),
            *TINY_NET, f"--{key}", "diagonal",
        )
        assert code == EXIT_USAGE
        assert f"--{key}" in err and "'diagonal'" in err and len(err.splitlines()) == 1
        code, _, err = train_with_config(tmp_path, capsys, f"{key}=diagonal\n")
        assert code == EXIT_USAGE
        assert err.startswith(f"usage error: {key} must be ") and "'diagonal'" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m.ck").exists()

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--out", str(tmp_path / "m.ck"))
        assert code == EXIT_USAGE

    def test_every_network_config_key_has_a_flag(self, tmp_path, capsys):
        def trained_cfg(*flags):
            ck = tmp_path / "m.ck"
            code, _, _ = run(
                capsys, "train", "--synthetic", "1", "--iters", "0", "--size", "32",
                "--out", str(ck), *TINY_NET, *flags,
            )
            assert code == EXIT_OK, flags
            return load_checkpoint(ck)[1]

        base = trained_cfg()
        variants = [
            ["--size", "64"], ["--decoder-width", "5"], ["--stage-channels", "2,2,3,3,4"],
            ["--pma", "left"], ["--reasoning", "nonlocal"],
        ]
        reached = set()
        for flags in variants:
            cfg = trained_cfg(*flags)
            reached |= {f.name for f in fields(NetworkConfig) if getattr(cfg, f.name) != getattr(base, f.name)}
        assert reached == {f.name for f in fields(NetworkConfig)}


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
        save_checkpoint({}, NetworkConfig(), ck)
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
        save_checkpoint({}, NetworkConfig(), ck)
        replace_config_blob(ck, b"decoder_width=wide\n")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error:") and "'decoder_width'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", ["pma", "reasoning"])
    def test_checkpoint_config_unknown_ablation_value_is_data_error(self, tmp_path, capsys, key):
        ck = tmp_path / "model.ck"
        save_checkpoint({}, NetworkConfig(), ck)
        replace_config_blob(ck, f"{key}=diagonal\n".encode())
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error:") and f"{key} must be " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("size", [b"0,0", b"-32,64"])
    def test_checkpoint_with_non_positive_input_size_is_data_error(self, tmp_path, capsys, size):
        ck = tmp_path / "model.ck"
        save_checkpoint({}, NetworkConfig(), ck)
        replace_config_blob(ck, b"input_size=" + size + b"\n")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error:") and "input_size must be positive" in err
        assert len(err.splitlines()) == 1

    def test_checkpoint_of_an_older_version_is_data_error(self, trained, capsys):
        tmp_path, ck = trained
        data = bytearray(ck.read_bytes())
        struct.pack_into("<I", data, 8, 3)
        ck.write_bytes(bytes(data))
        img = next((tmp_path / "d" / "images").glob("*.ppm"))
        code, _, err = run(capsys, "infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(tmp_path / "o.pgm"))
        assert code == EXIT_DATA
        assert err.startswith("data error: checkpoint version 3") and "re-save" in err
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

    @pytest.mark.parametrize(
        "cfg", [TINY_CFG, replace(TINY_CFG, reasoning="nonlocal")], ids=["rr", "nonlocal"]
    )
    def test_params_from_checkpoint_equal_the_saved_params(self, tmp_path, cfg):
        saved = init_network_params(cfg, seed=5)
        save_checkpoint(saved, cfg, tmp_path / "m.ck")
        params, loaded_cfg = _params_from_checkpoint(tmp_path / "m.ck")

        def table(p):
            return [(n, t.data.dtype, t.shape, t.requires_grad, t.data.tobytes()) for n, t in p.items()]

        assert loaded_cfg == cfg
        assert type(params) is dict and table(params) == table(saved)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda named: named[:-1], r"do not match the configured architecture \(missing \['head.c2.b'\], unexpected \[\]\)"),
            (lambda named: named + [("extra.w", np.zeros(2))], r"\(missing \[\], unexpected \['extra.w'\]\)"),
            (lambda named: named[:-1] + [("head.c2.b", np.zeros(2))], r"entry 'head.c2.b' has shape \(2,\), expected \(1,\)"),
        ],
        ids=["missing", "unexpected", "shape"],
    )
    def test_checkpoint_that_does_not_fit_the_architecture_is_data_error(self, tmp_path, capsys, edit, message):
        named = [(n, t.data) for n, t in init_network_params(TINY_CFG, seed=0).items()]
        save_checkpoint(dict(edit(named)), TINY_CFG, tmp_path / "m.ck")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(tmp_path / "m.ck"),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and len(err.splitlines()) == 1
        assert re.search(message, err)

    def test_ablation_checkpoint_holding_every_module_is_data_error(self, tmp_path, capsys):
        # what a build that saved the whole draw table for every variant wrote
        # under pma=none, reasoning=none: entries of modules the baseline never runs
        cfg = replace(TINY_CFG, pma="none", reasoning="none")
        save_checkpoint(init_network_params(TINY_CFG, seed=0), cfg, tmp_path / "m.ck")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(tmp_path / "m.ck"),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert len(err.splitlines()) == 1
        assert err.startswith(
            "data error: checkpoint entries do not match the configured architecture "
            "(missing [], unexpected ['pma.s1.att.k3.b', "
        )

    def test_config_that_does_not_fit_its_entries_is_data_error_before_any_allocation(self, tmp_path, capsys):
        # 64 px entries under a config whose channel-reasoning matrices would
        # be 2**34 x 2**34: only the table of shapes may be built from it
        cfg = replace(TINY_CFG, input_size=(64, 64))
        ck = tmp_path / "m.ck"
        save_checkpoint(init_network_params(cfg, seed=0), replace(cfg, input_size=(1048576, 1048576)), ck)
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error: entry 'rr.s3.channel.proj_w' has shape (64, 64), expected (17179869184")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "shape", [(65536,) * 4, (2**31 + 1, 2**31 + 1, 3), (2**31, 2**31 - 1)], ids=["wraps_to_0", "wraps_negative", "fits"]
    )
    def test_entry_shape_whose_size_overflows_int64_is_data_error(self, tmp_path, capsys, shape):
        ck = tmp_path / "m.ck"
        write_one_entry_checkpoint(ck, shape, b"")
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error: checkpoint truncated while reading payload of 'w'")
        assert len(err.splitlines()) == 1

    def test_entry_of_more_dimensions_than_numpy_holds_is_data_error(self, tmp_path, capsys):
        ck = tmp_path / "m.ck"
        write_one_entry_checkpoint(ck, (1,) * 65, struct.pack("<f", 1.0))
        code, _, err = run(
            capsys, "infer", "--checkpoint", str(ck),
            "--input", str(tmp_path / "x.ppm"), "--output", str(tmp_path / "y.pgm"),
        )
        assert code == EXIT_DATA
        assert err.startswith("data error: entry 'w' in ") and len(err.splitlines()) == 1

    def test_entries_in_any_order_load_to_the_same_params_and_maps(self, tmp_path, capsys):
        # a checkpoint written in another entry order, such as one from a
        # build that listed its parameters module by module
        params = init_network_params(TINY_CFG, seed=3)
        save_checkpoint(params, TINY_CFG, tmp_path / "table.ck")
        save_checkpoint(dict(reversed(params.items())), TINY_CFG, tmp_path / "reversed.ck")
        assert list(load_checkpoint(tmp_path / "reversed.ck")[0]) == list(reversed(params))
        write_ppm(tmp_path / "in.ppm", np.random.default_rng(1).uniform(size=(48, 40, 3)))
        maps = []
        for name in ("table", "reversed"):
            loaded, _ = _params_from_checkpoint(tmp_path / f"{name}.ck")
            assert list(loaded) == list(params)
            assert all(np.array_equal(loaded[n].data, t.data) for n, t in params.items())
            out = tmp_path / f"{name}.pgm"
            code, _, _ = run(capsys, "infer", "--checkpoint", str(tmp_path / f"{name}.ck"), "--input", str(tmp_path / "in.ppm"), "--output", str(out))
            assert code == EXIT_OK
            maps.append(out.read_bytes())
        assert maps[0] == maps[1]

    def test_seeded_corruptions_exit_ok_or_with_one_data_error_line(self, tmp_path, capsys):
        cfg = NetworkConfig(stage_channels=(1, 1, 2, 2, 2), decoder_width=2, input_size=(32, 32))
        ck, img, out = tmp_path / "m.ck", tmp_path / "in.ppm", tmp_path / "out.pgm"
        save_checkpoint(init_network_params(cfg, seed=0), cfg, ck)
        good = ck.read_bytes()
        write_ppm(img, np.full((32, 32, 3), 0.5))
        rng = np.random.default_rng(0)
        codes = []
        for i in range(210):
            data = bytearray(good)
            pos = int(rng.integers(0, len(data)))
            if i % 3 == 0:
                data[pos] ^= int(rng.integers(1, 256))  # flip some bits of one byte
            elif i % 3 == 1:
                del data[pos:]  # truncate
            else:
                data.insert(pos, int(rng.integers(0, 256)))  # insert one byte
            ck.write_bytes(bytes(data))
            code, _, err = run(capsys, "infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(out))
            codes.append(code)
            assert code in (EXIT_OK, EXIT_DATA), (i, pos, code, err)
            if code == EXIT_DATA:
                assert err.startswith("data error: ") and len(err.splitlines()) == 1, (i, pos, err)
                assert "Traceback" not in err
        assert codes.count(EXIT_DATA) > 150

    def test_directory_maps_equal_single_image_runs(self, trained, capsys, rng):
        tmp_path, ck = trained
        images = tmp_path / "d" / "images"
        write_ppm(images / "a_odd_size.ppm", rng.uniform(size=(40, 56, 3)))
        maps = tmp_path / "maps"
        code, out, _ = run(capsys, "infer", "--checkpoint", str(ck), "--input-dir", str(images), "--output-dir", str(maps))
        assert code == EXIT_OK
        stems = sorted(p.stem for p in images.glob("*.ppm"))
        assert len(stems) == 3
        assert [line.split()[1] for line in out.splitlines()] == [str(maps / f"{n}.pgm") for n in stems]
        assert sorted(p.name for p in maps.iterdir()) == [f"{n}.pgm" for n in stems]
        for n in stems:
            single = tmp_path / f"{n}.single.pgm"
            run(capsys, "infer", "--checkpoint", str(ck), "--input", str(images / f"{n}.ppm"), "--output", str(single))
            assert (maps / f"{n}.pgm").read_bytes() == single.read_bytes()
        assert read_pgm(maps / "a_odd_size.pgm").shape == (40, 56)

    @pytest.mark.parametrize("layout", ["empty", "only_pgm", "missing", "a_file"])
    def test_input_dir_without_images_is_data_error_naming_it(self, trained, capsys, layout):
        tmp_path, ck = trained
        src = tmp_path / "src"
        if layout in ("empty", "only_pgm"):
            src.mkdir()
        if layout == "only_pgm":
            write_pgm(src / "m.pgm", np.zeros((4, 4)))
        if layout == "a_file":
            src.write_text("")
        code, out, err = run(capsys, "infer", "--checkpoint", str(ck), "--input-dir", str(src), "--output-dir", str(tmp_path / "o"))
        assert code == EXIT_DATA and out == ""
        assert err.startswith("data error: ") and str(src) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--input"],
            ["--output"],
            ["--input-dir"],
            ["--input", "--output-dir"],
            ["--input", "--output", "--input-dir"],
            ["--input-dir", "--output-dir", "--output"],
            ["--input", "--output", "--input-dir", "--output-dir"],
        ],
        ids=lambda flags: "+".join(f.strip("-") for f in flags) or "none",
    )
    def test_infer_needs_exactly_one_pair_of_paths(self, trained, capsys, flags):
        tmp_path, ck = trained
        paths = {
            "--input": next((tmp_path / "d" / "images").glob("*.ppm")),
            "--output": tmp_path / "o.pgm",
            "--input-dir": tmp_path / "d" / "images",
            "--output-dir": tmp_path / "maps",
        }
        code, out, err = run(capsys, "infer", "--checkpoint", str(ck), *(str(a) for f in flags for a in (f, paths[f])))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert not paths["--output"].exists() and not paths["--output-dir"].exists()

    def test_corrupt_image_in_directory_is_data_error_naming_it(self, trained, capsys):
        tmp_path, ck = trained
        images = tmp_path / "d" / "images"
        bad = images / "zz_bad.ppm"
        bad.write_bytes(b"P6\n8 8\n255\n" + bytes(10))  # truncated
        code, _, err = run(capsys, "infer", "--checkpoint", str(ck), "--input-dir", str(images), "--output-dir", str(tmp_path / "maps"))
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and str(bad) in err and len(err.splitlines()) == 1


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

    @pytest.mark.parametrize("case", ["pred_missing", "gt_missing", "unpaired", "no_pgm"])
    def test_bad_directories_are_one_line_data_errors(self, tmp_path, capsys, rng, case):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        if case != "no_pgm":
            self._write_pair(pred_d, gt_d, "a", rng.uniform(size=(4, 4)), np.ones((4, 4)))
        if case == "unpaired":
            write_pgm(gt_d / "b.pgm", np.ones((4, 4)))
        pred_arg = tmp_path / "nope" if case == "pred_missing" else pred_d
        gt_arg = tmp_path / "nope" if case == "gt_missing" else gt_d
        report = tmp_path / "r.json"
        code, out, err = run(
            capsys, "eval", "--pred", str(pred_arg), "--gt", str(gt_arg),
            "--report", str(report), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_DATA and out == "" and not report.exists()
        assert err.startswith("data error: ") and len(err.splitlines()) == 1
        expected = {
            "pred_missing": f"--pred {tmp_path / 'nope'} is not a directory",
            "gt_missing": f"--gt {tmp_path / 'nope'} is not a directory",
            "unpaired": "unpaired files: b",
            "no_pgm": f"no .pgm files to evaluate in {pred_d} or {gt_d}",
        }[case]
        assert expected in err

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

    # eval has one streaming path; a thread count in the environment must not change it
    @pytest.mark.parametrize("retired_knob", [None, "4"])
    def test_pairs_are_read_and_scored_one_at_a_time(self, tmp_path, capsys, rng, monkeypatch, retired_knob):
        if retired_knob is not None:
            monkeypatch.setenv("RRNET_THREADS", retired_knob)
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        for i in range(8):
            gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
            self._write_pair(pred_d, gt_d, f"s{i}", rng.uniform(size=(8, 8)), gt)
        events = []
        read_pgm_bytes_, evaluate_pair_ = rrnet.dataio.read_pgm_bytes, rrnet.metrics.evaluate_pair

        def logged(tag, fn):
            def call(*args):
                events.append(tag)
                return fn(*args)
            return call

        monkeypatch.setattr(rrnet.dataio, "read_pgm_bytes", logged("read", read_pgm_bytes_))
        monkeypatch.setattr(rrnet.metrics, "evaluate_pair", logged("score", evaluate_pair_))
        code, _, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert events == ["read", "read", "score"] * 8  # map, mask, score

    def _write_8bit_pairs(self, tmp_path, rng):
        """Soft and near-binary maps, all-background and all-foreground
        masks and a single-level map; returns the two directories."""
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        for i in range(6):
            gt = (rng.uniform(size=(24, 20)) < 0.35).astype(np.float64)
            pred = rng.uniform(size=gt.shape) if i % 2 else np.where(gt > 0, 0.9, 0.1)
            self._write_pair(pred_d, gt_d, f"s{i}", pred, gt)
        self._write_pair(pred_d, gt_d, "background", rng.uniform(size=(24, 20)), np.zeros((24, 20)))
        self._write_pair(pred_d, gt_d, "foreground", rng.uniform(size=(24, 20)), np.ones((24, 20)))
        self._write_pair(pred_d, gt_d, "level", np.full((24, 20), 77 / 255), gt)
        return pred_d, gt_d

    def test_report_equals_float_path_scoring(self, tmp_path, capsys, rng):
        pred_d, gt_d = self._write_8bit_pairs(tmp_path, rng)
        ids = sorted(p.stem for p in pred_d.glob("*.pgm"))
        want = rrnet.metrics.evaluate_pairs(
            (read_pgm(pred_d / f"{k}.pgm"), rrnet.dataio.read_mask(gt_d / f"{k}.pgm"), k) for k in ids
        )
        report, curve = tmp_path / "r.json", tmp_path / "c.csv"
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d), "--report", str(report), "--prcurve", str(curve)
        )
        assert code == EXIT_OK
        assert report.read_text() == rrnet.metrics.report_to_json(want)
        assert curve.read_text() == rrnet.metrics.pr_curve_csv(want.pr)
        assert err == "warning: 'background' has no foreground; excluded from F/PR\n"

    def test_8bit_pgms_never_take_the_float_path(self, tmp_path, capsys, rng, monkeypatch):
        # a guard on the speed of eval: the float readers and the distinct-level
        # sort are never called
        pred_d, gt_d = self._write_8bit_pairs(tmp_path, rng)

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        monkeypatch.setattr(rrnet.dataio, "read_pgm", refuse("read_pgm"))
        monkeypatch.setattr(rrnet.dataio, "read_mask", refuse("read_mask"))
        monkeypatch.setattr(rrnet.metrics, "_distinct_levels", refuse("_distinct_levels"))
        dtypes, evaluate_pair_ = [], rrnet.metrics.evaluate_pair

        def record(s, gt, sample_id):
            dtypes.append((s.dtype, gt.dtype))
            return evaluate_pair_(s, gt, sample_id)

        monkeypatch.setattr(rrnet.metrics, "evaluate_pair", record)
        code, _, err = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK, err
        assert dtypes == [(np.uint8, np.bool_)] * 9

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

    def test_report_without_foreground_is_strict_json(self, tmp_path, capsys, rng):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        self._write_pair(pred_d, gt_d, "empty", rng.uniform(size=(8, 8)), np.zeros((8, 8)))
        report = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "eval", "--pred", str(pred_d), "--gt", str(gt_d),
            "--report", str(report), "--prcurve", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert " F=n/a " in out

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(report.read_text(), parse_constant=reject)
        assert doc["aggregate"]["f_beta_max"] is None
        assert doc["per_image"][0]["f_beta_max"] is None


@pytest.mark.parametrize(
    "command,flag", [("eval", "--report"), ("infer", "--input"), ("infer", "--output"), ("infer", "--checkpoint")]
)
def test_directory_in_place_of_a_file_is_data_error(tmp_path, capsys, command, flag):
    run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--count", "1", "--size", "32")
    ck = tmp_path / "m.ck"
    run(capsys, "train", "--synthetic", "1", "--iters", "0", "--size", "32", "--out", str(ck), *TINY_NET)
    masks = tmp_path / "d" / "masks"
    argv = {
        "eval": {"--pred": masks, "--gt": masks, "--report": tmp_path / "r.json", "--prcurve": tmp_path / "c.csv"},
        "infer": {
            "--checkpoint": ck,
            "--input": next((tmp_path / "d" / "images").glob("*.ppm")),
            "--output": tmp_path / "o.pgm",
        },
    }[command]
    argv[flag] = tmp_path
    code, _, err = run(capsys, command, *(str(a) for kv in argv.items() for a in kv))
    assert code == EXIT_DATA
    assert err.startswith("data error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command,unused",
    [("infer", {"numpy.random", "numpy.ma", "rrnet.checks"}), ("train", {"numpy.ma", "rrnet.checks"})],
)
def test_process_imports_only_what_its_command_runs(tmp_path, command, unused):
    """An `rrnet infer` process leaves numpy.random, numpy.ma and the check
    battery unimported, an `rrnet train` process the last two; both still
    import every module the benchmark's span tracer wraps."""
    ck, img = tmp_path / "m.ck", tmp_path / "in.ppm"
    save_checkpoint(init_network_params(TINY_CFG, seed=0), TINY_CFG, ck)
    write_ppm(img, np.full((32, 32, 3), 0.5))
    argv = {
        "infer": ["infer", "--checkpoint", str(ck), "--input", str(img), "--output", str(tmp_path / "out.pgm")],
        "train": ["train", "--synthetic", "1", "--iters", "1", "--size", "32", *TINY_NET, "--out", str(ck)],
    }[command]
    script = (
        "import json, sys\n"
        "from rrnet.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == EXIT_OK
    modules = set(result["modules"])
    assert unused.isdisjoint(modules), unused & modules
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {module for module, _, _ in tracer.TARGETS}
    assert wrapped <= modules and "rrnet.metrics" in wrapped


class TestSelfCheck:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, "self-check", "--trials", "2")
        assert code == EXIT_OK
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_readme_counts_match_the_battery(self):
        from rrnet.checks import op_cases, run_self_check

        readme = (ROOT / "README.md").read_text()
        checks, cases = map(int, re.search(r"(\d+) checks in all \((\d+) cases\)", readme).groups())
        assert checks == len(run_self_check(trials=1))
        assert cases == len(list(op_cases(np.random.default_rng(0))))

    def test_dropping_a_case_leaves_every_other_check_as_it_was(self, monkeypatch):
        import rrnet.checks as checks

        before = {r.name: (r.ok, r.detail) for r in checks.run_self_check(trials=1)}
        op_cases = checks.op_cases
        monkeypatch.setattr(checks, "op_cases", lambda rng: ((n, b) for n, b in op_cases(rng) if n != "add"))
        after = {r.name: (r.ok, r.detail) for r in checks.run_self_check(trials=1)}
        del before["grad/add"]
        assert after == before

    def test_graph_checks_read_the_forward_graph_reason_runs(self, monkeypatch):
        import rrnet.graph as graph
        from rrnet.checks import run_self_check

        forward = graph.reasoning_forward
        shapes = []

        def unsymmetrized(mc, p):
            f = forward(mc, p)
            adj = f.adj.copy()
            adj[0, -1] = np.nextafter(adj[0, -1], np.inf)  # one ulp off symmetric
            shapes.append(mc.shape)
            return f._replace(adj=adj)

        monkeypatch.setattr(graph, "reasoning_forward", unsymmetrized)
        failed = {r.name for r in run_self_check(trials=1) if not r.ok}
        assert failed == {"graph/adjacency_symmetric"}
        assert (16, 6) in shapes  # the 4 x 4 x 6 map's spatial graph

    def test_zero_trials_is_usage_error(self, capsys):
        code, out, err = run(capsys, "self-check", "--trials", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and "--trials" in err and len(err.splitlines()) == 1

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "self-check", "--seed", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "usage error: --seed must be at least 0, got -1\n"


class TestUsage:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_repeated_calls_build_the_parser_once(self, tmp_path, capsys, monkeypatch):
        pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
        pred_d.mkdir(), gt_d.mkdir()
        write_pgm(pred_d / "a.pgm", np.full((8, 8), 0.5))
        write_pgm(gt_d / "a.pgm", np.eye(8))
        argv = ["eval", "--pred", str(pred_d), "--gt", str(gt_d),
                "--report", str(tmp_path / "r.json"), "--prcurve", str(tmp_path / "c.csv")]
        assert run(capsys, *argv)[0] == EXIT_OK
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(3):
            assert run(capsys, *argv)[0] == EXIT_OK
        assert built == []

    def test_readme_command_lines_parse(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = [ln for ln in block.splitlines() if ln.startswith("rrnet ")]
        assert len(lines) >= 8
        parser = _build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except _UsageError as e:
                pytest.fail(f"README line '{line}' does not parse: {e}")
