"""Command-line interface: gen-data, train, infer, eval, self-check.

Exit codes: 0 success, 1 usage/config error or out of memory, 2 data
error, 3 numerical failure (NaN detected). A closed stdout is not an error:
the command drops its remaining output, finishes and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import dataio
from .dataio import CheckpointError, DataFormatError
from .metrics import evaluate_pairs, pr_curve_csv, report_to_json  # bench/test_bench.py patches report_to_json here
from .network import (
    PMA_CHOICES,
    REASONING_CHOICES,
    NetworkConfig,
    from_mapping,
    param_shapes,
    parse_kv_text,
    predict,
)
from .tensor import NumericalError, Tensor, no_grad
from .training import TrainSettings, train_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# training-side keys allowed in a config file, on top of NetworkConfig keys
_TRAIN_KEYS = {f.name for f in fields(TrainSettings)} - {"log_every"}
_NET_KEYS = {f.name for f in fields(NetworkConfig)}


def _say(line: str) -> None:
    """Print one line to stdout. Once its reader has gone (`rrnet ... | head`),
    stdout is pointed at the null device, so the command still finishes and
    exits quietly; later lines are dropped."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _UsageError(f"{flag} must be at least {low}, got {value}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a comma list of integers, got '{text}'") from None


def _square(text: str) -> tuple[int, int]:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return n, n


@functools.cache  # built once per process: in-process callers run main many times
def _build_parser() -> _Parser:
    parser = _Parser(prog="rrnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic shapes dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64)

    p = sub.add_parser("train", help="train a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", type=int, metavar="N", help="train on N generated samples")
    src.add_argument("--manifest", help="image<TAB>mask manifest file")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--config", help="key=value config file")
    # each flag below stores into its NetworkConfig or TrainSettings key and
    # defaults to None, so a flag not given leaves the config file's value
    p.add_argument("--iters", dest="iterations", type=int, help="training iterations (default 2000)")
    p.add_argument("--batch", dest="batch_size", type=int, help="batch size (default 8)")
    p.add_argument("--lr", dest="lr_initial", type=float, help="initial learning rate (default 5e-5)")
    p.add_argument("--final-lr", dest="lr_final", type=float, help="final learning rate (default 5e-7)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument(
        "--size",
        dest="input_size",
        type=_square,
        help="training resolution, divisible by 32 (default 64 unless the config file sets input_size)",
    )
    p.add_argument("--decoder-width", type=int)
    p.add_argument("--stage-channels", type=_int_list, help="comma list of 5 stage widths")
    p.add_argument("--no-augment", dest="augment", action="store_false", default=None)
    p.add_argument("--pma", choices=PMA_CHOICES, help="PMA branches that gate the decoder (default both)")
    p.add_argument(
        "--reasoning", choices=REASONING_CHOICES, help="what runs after stages 3-5 (default srr+crr)"
    )

    p = sub.add_parser("infer", help="run a checkpoint on one image, or on each image in a directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", help="PPM image (with --output)")
    p.add_argument("--output", help="PGM saliency map")
    p.add_argument("--input-dir", help="directory of PPM images (with --output-dir)")
    p.add_argument("--output-dir", help="directory for one <stem>.pgm map per image")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted PGM maps")
    p.add_argument("--gt", required=True, help="directory of ground-truth PGM masks")
    p.add_argument("--report", required=True, help="output JSON report")
    p.add_argument("--prcurve", required=True, help="output 256-row P-R CSV")

    p = sub.add_parser("self-check", help="run gradient checks and invariant suites")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen_data(args) -> int:
    _at_least("--count", args.count, 1)
    _at_least("--seed", args.seed, 0)
    _at_least("--size", args.size, 1)
    samples = dataio.synth_dataset(args.count, args.seed, args.size)  # before any directory is made
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    pairs = []
    for s in samples:
        img_rel = f"images/{s.id}.ppm"
        msk_rel = f"masks/{s.id}.pgm"
        dataio.write_ppm(out / img_rel, s.image)
        dataio.write_pgm(out / msk_rel, s.mask)
        pairs.append((img_rel, msk_rel))
    dataio.write_manifest(out / "manifest.txt", pairs)
    _say(f"wrote {len(samples)} samples under {out}")
    return EXIT_OK


def _overlay(obj, args):
    """obj with each field whose flag was given replaced by the flag's value."""
    given = {f.name: getattr(args, f.name, None) for f in fields(obj)}
    return replace(obj, **{k: v for k, v in given.items() if v is not None})


def _cmd_train(args) -> int:
    file_kv: dict[str, str] = {}
    if args.config:
        text = Path(args.config).read_text()
        file_kv = parse_kv_text(text)
        unknown = set(file_kv) - _NET_KEYS - _TRAIN_KEYS
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    if args.input_size is None and "input_size" not in file_kv:
        args.input_size = (64, 64)  # toy training default
    net_kv = {k: v for k, v in file_kv.items() if k in _NET_KEYS}
    train_kv = {k: v for k, v in file_kv.items() if k in _TRAIN_KEYS}
    # an explicit flag wins over the config file
    cfg = _overlay(from_mapping(NetworkConfig, net_kv), args)
    settings = _overlay(from_mapping(TrainSettings, train_kv), args)
    if args.synthetic is not None:
        _at_least("--synthetic", args.synthetic, 1)
        samples = dataio.synth_dataset(args.synthetic, settings.seed, cfg.input_size[0])
    else:
        samples = dataio.load_manifest_samples(args.manifest)

    def log_fn(it, loss, lr):
        _say(f"{it}\t{loss:.6f}\t{lr:.3e}")

    result = train_model(samples, cfg, settings, log_fn=log_fn)
    dataio.save_checkpoint(result.params, cfg, args.out)
    _say(f"saved checkpoint to {args.out}")
    return EXIT_OK


def _files(directory, suffix: str, flag: str) -> list[Path]:
    """The sorted *suffix files of the directory a flag names."""
    d = Path(directory)
    if not d.is_dir():
        raise DataFormatError(f"{flag} {d} is not a directory")
    return sorted(d.glob(f"*{suffix}"))


def _params_from_checkpoint(path):
    entries, cfg = dataio.load_checkpoint(path)
    # names and shapes are checked against the config's table before any
    # parameter is made, so a config that does not fit allocates nothing
    shapes = param_shapes(cfg)
    if set(shapes) != set(entries):
        missing = sorted(set(shapes) - set(entries))[:4]
        extra = sorted(set(entries) - set(shapes))[:4]
        raise CheckpointError(
            f"checkpoint entries do not match the configured architecture "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, shape in shapes.items():
        if entries[name].shape != shape:
            raise CheckpointError(f"entry '{name}' has shape {entries[name].shape}, expected {shape}")
    return {name: Tensor(entries[name], requires_grad=True) for name in shapes}, cfg


def _infer_jobs(args) -> list[tuple[Path, Path]]:
    """(image, map) paths: the --input/--output pair, or DIR/<stem>.ppm to
    OUT/<stem>.pgm for each image of --input-dir in sorted order."""
    single, many = (args.input, args.output), (args.input_dir, args.output_dir)
    if all(single) and not any(many):
        return [(Path(args.input), Path(args.output))]
    if all(many) and not any(single):
        images = _files(args.input_dir, ".ppm", "--input-dir")
        if not images:
            raise DataFormatError(f"no .ppm images in {args.input_dir}")
        return [(img, Path(args.output_dir) / f"{img.stem}.pgm") for img in images]
    raise _UsageError("give --input with --output, or --input-dir with --output-dir")


def _cmd_infer(args) -> int:
    jobs = _infer_jobs(args)
    params, cfg = _params_from_checkpoint(args.checkpoint)
    if args.output_dir:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    for src, dst in jobs:
        image = dataio.read_ppm(src)
        resized = dataio.resize_bilinear(image, cfg.input_size)
        start = time.perf_counter()
        with no_grad():
            pred = predict(Tensor(resized), params, cfg)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        dataio.write_pgm(dst, dataio.resize_bilinear(pred.map.data, image.shape[:2]))
        _say(f"wrote {dst} ({elapsed_ms:.1f} ms/image)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    preds = {p.stem: p for p in _files(args.pred, ".pgm", "--pred")}
    gts = {p.stem: p for p in _files(args.gt, ".pgm", "--gt")}
    unpaired = sorted(set(preds) ^ set(gts))
    if unpaired:
        raise DataFormatError(f"unpaired files: {', '.join(unpaired)}")
    if not preds:
        raise DataFormatError(f"no .pgm files to evaluate in {args.pred} or {args.gt}")

    def pairs():  # read and checked one at a time, as evaluate_pairs draws them
        for k in sorted(preds):
            # scored from the stored bytes: byte k is level k / 255
            s, gt = dataio.read_pgm_bytes(preds[k]), dataio._foreground(dataio.read_pgm_bytes(gts[k]))
            if s.shape != gt.shape:
                raise DataFormatError(
                    f"sample '{k}': prediction {s.shape} and mask {gt.shape} differ in shape"
                )
            yield s, gt, k

    report = evaluate_pairs(pairs())
    for sample_id in report.skipped_fpr:
        print(f"warning: '{sample_id}' has no foreground; excluded from F/PR", file=sys.stderr)
    Path(args.report).write_text(report_to_json(report))
    Path(args.prcurve).write_text(pr_curve_csv(report.pr))
    f = "n/a" if report.f_beta_max is None else f"{report.f_beta_max:.4f}"
    _say(f"n={len(report.per_image)} MAE={report.mae:.4f} F={f} E={report.e_m:.4f} S={report.s_m:.4f}")
    return EXIT_OK


def _cmd_self_check(args) -> int:
    from .checks import run_self_check  # only self-check pays for importing the check battery

    _at_least("--trials", args.trials, 1)
    _at_least("--seed", args.seed, 0)
    results = run_self_check(trials=args.trials, seed=args.seed)
    failed = 0
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        _say(f"{status} {r.name}{detail}")
        failed += 0 if r.ok else 1
    _say(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "self-check": _cmd_self_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print(f"out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
