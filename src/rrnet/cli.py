"""Command-line interface: gen-data, train, infer, eval, self-check.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure (NaN detected). A closed stdout is not an error: the command drops
its remaining output, finishes and exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import dataio
from .checks import run_self_check
from .dataio import CheckpointError, DataFormatError
from .metrics import evaluate_pairs, pr_curve_csv, report_to_json
from .network import NetworkConfig, from_mapping, init_network_params, parse_kv_text, predict
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
    p.add_argument("--no-pma", dest="use_pma", action="store_false", default=None)
    p.add_argument("--no-srr", dest="use_srr", action="store_false", default=None)
    p.add_argument("--no-crr", dest="use_crr", action="store_false", default=None)
    p.add_argument(
        "--nonlocal", dest="use_nonlocal", action="store_true", default=None, help="replace RR with non-local blocks"
    )
    p.add_argument("--pma-branch", choices=("both", "left", "right"))

    p = sub.add_parser("infer", help="run a checkpoint on one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="PPM image")
    p.add_argument("--output", required=True, help="PGM saliency map")

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
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    samples = dataio.synth_dataset(args.count, args.seed, args.size)
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
    if args.use_nonlocal:
        args.use_srr = args.use_crr = False
    if args.input_size is None and "input_size" not in file_kv:
        args.input_size = (64, 64)  # toy training default
    net_kv = {k: v for k, v in file_kv.items() if k in _NET_KEYS}
    train_kv = {k: v for k, v in file_kv.items() if k in _TRAIN_KEYS}
    # an explicit flag wins over the config file
    cfg = _overlay(from_mapping(NetworkConfig, net_kv), args)
    settings = _overlay(from_mapping(TrainSettings, train_kv), args)
    if args.synthetic is not None:
        samples = dataio.synth_dataset(args.synthetic, settings.seed, cfg.input_size[0])
    else:
        samples = dataio.load_manifest_samples(args.manifest)

    def log_fn(it, loss, lr):
        _say(f"{it}\t{loss:.6f}\t{lr:.3e}")

    result = train_model(samples, cfg, settings, log_fn=log_fn)
    dataio.save_checkpoint(result.params, cfg, args.out)
    _say(f"saved checkpoint to {args.out}")
    return EXIT_OK


def _params_from_checkpoint(path):
    entries, cfg = dataio.load_checkpoint(path)
    params = init_network_params(cfg, seed=0)
    named = dict(params.named_parameters())
    if set(named) != set(entries):
        missing = sorted(set(named) - set(entries))[:4]
        extra = sorted(set(entries) - set(named))[:4]
        raise CheckpointError(
            f"checkpoint entries do not match the configured architecture "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, values in entries.items():
        if named[name].data.shape != values.shape:
            raise CheckpointError(
                f"entry '{name}' has shape {values.shape}, expected {named[name].data.shape}"
            )
        named[name].data = values.astype(np.float32)
    return params, cfg


def _cmd_infer(args) -> int:
    params, cfg = _params_from_checkpoint(args.checkpoint)
    image = dataio.read_ppm(args.input)
    orig_hw = image.shape[:2]
    resized = dataio.resize_bilinear(image, cfg.input_size)
    start = time.perf_counter()
    with no_grad():
        pred = predict(Tensor(resized), params, cfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    saliency = dataio.resize_bilinear(pred.map.data, orig_hw)
    dataio.write_pgm(args.output, saliency)
    _say(f"wrote {args.output} ({elapsed_ms:.1f} ms/image)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    preds = {p.stem: p for p in sorted(pred_dir.glob("*.pgm"))}
    gts = {p.stem: p for p in sorted(gt_dir.glob("*.pgm"))}
    unpaired = sorted(set(preds) ^ set(gts))
    if unpaired:
        print(f"error: unpaired files: {', '.join(unpaired)}", file=sys.stderr)
        return EXIT_DATA
    if not preds:
        print("error: no .pgm files to evaluate", file=sys.stderr)
        return EXIT_DATA

    def pairs():  # read and checked one at a time, as evaluate_pairs draws them
        for k in sorted(preds):
            s, gt = dataio.read_pgm(preds[k]), dataio.read_mask(gts[k])
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
    _say(
        f"n={len(report.per_image)} MAE={report.mae:.4f} F={report.f_beta_max:.4f} "
        f"E={report.e_m:.4f} S={report.s_m:.4f}"
    )
    return EXIT_OK


def _cmd_self_check(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    results = run_self_check(trials=args.trials, seed=args.seed)
    failed = 0
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        _say(f"{status} {r.name}{detail}")
        failed += 0 if r.ok else 1
    _say(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "infer":
            return _cmd_infer(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "self-check":
            return _cmd_self_check(args)
        raise _UsageError(f"unknown command {args.command}")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError,) as e:
        if isinstance(e, (DataFormatError, CheckpointError)):
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
