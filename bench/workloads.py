"""The four workloads. Each is a closed loop with one caller: the next
operation starts when the previous one has finished.

A workload object is built from the seed and a scratch directory; the
benchmark sets `tracer` during the traced slices of a traced run. `setup()`
is rrnet's part of building the inputs (the benchmark repeats it and reports
the median); `prepare()` runs once, untimed, and does one set-up plus the
benchmark's own work (input files, values the checks compare against);
`check()` runs the output checks against stored references, which also warms
caches, and `loop(deadline, stats)` runs measured operations until the
deadline.
All inputs come from the seed; the program sees only the generated files and
arrays, through rrnet's public functions and the `rrnet` CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import rrnet
import rrnet.cli

from checks import (
    check_losses,
    check_map,
    check_pgm,
    check_reference,
    check_report,
    check_same_pgm,
    map_summary,
    pgm_pixels,
)
from tracer import load_spans

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


@dataclass
class Stats:
    """Measured operations of one loop."""

    times: list[float] = field(default_factory=list)  # seconds per operation
    items: int = 0  # samples trained or images produced
    attempted: int = 0
    failed: int = 0

    def add(self, seconds: list[float], items: int, error: str | None, attempted: int = 1) -> None:
        self.times.extend(seconds)
        self.items += items
        self.attempted += attempted
        if error is not None:
            self.failed += attempted
            print(f"failed: {error}", file=sys.stderr)


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(values, np.float64) * 255.0), 0, 255).astype(np.uint8)


def _write_pnm(path: Path, magic: bytes, values: np.ndarray) -> np.ndarray:
    """Write values in [0, 1] as an 8-bit PGM (P5) or PPM (P6); returns the bytes as pixels."""
    h, w = values.shape[:2]
    payload = _quantize(values)
    path.write_bytes(magic + b"\n%d %d\n255\n" % (w, h) + payload.tobytes())
    return payload


class Workload:
    op = unit = ""  # what one timed operation is; what per-layer metrics are per
    images_per_op = 1  # images per operation (per-layer metrics are per image)
    fg_images_per_op = 0  # images with foreground per operation (eval only)
    tracer = None  # set during the traced slices of a traced run

    def prepare(self) -> None:
        self.setup()


class Train64(Workload):
    """`train_model` on synth_dataset(8) at 64 px, batch 8, 7-way augmentation,
    training seed 7; the benchmark seed picks the dataset. Iterations are
    timed from the `log_fn` timestamps (log_every=1)."""

    op = unit = "iteration"
    CFG = rrnet.NetworkConfig(input_size=(64, 64))
    CHUNK = 8  # iterations per train_model call; every call repeats the same run
    SETTINGS = rrnet.TrainSettings(iterations=CHUNK, batch_size=8, seed=7, augment=True, log_every=1)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.expected: list[float] = []  # the longest loss sequence seen so far

    def setup(self) -> None:
        # the `rrnet train --iters 0` path: dataset, augmented pool, initial parameters
        self.samples = rrnet.synth_dataset(8, self.seed, 64)
        rrnet.train_model(self.samples, self.CFG, replace(self.SETTINGS, iterations=0))

    def reference_run(self) -> list[float]:
        """Losses of a short run on the reference dataset seed."""
        ref = REFERENCE["train64"]
        data = rrnet.synth_dataset(8, ref["data_seed"], 64)
        log = rrnet.train_model(data, self.CFG, replace(self.SETTINGS, iterations=ref["iterations"])).log
        return [loss for _, loss, _ in log]

    def check(self) -> str | None:
        ref = REFERENCE["train64"]
        return check_reference("train64 losses", self.reference_run(), ref["losses"], ref["rtol"])

    def loop(self, deadline: float, stats: Stats) -> None:
        while time.perf_counter() < deadline:
            losses, times = [], []
            last = [0.0]

            def log_fn(it, loss, lr):
                now = time.perf_counter()
                if it > 0:
                    times.append(now - last[0])
                losses.append(loss)
                last[0] = now
                if self.tracer is not None:
                    self.tracer.op += 1
                    self.tracer.phase = "loop" if it < self.CHUNK else None
                if it < self.CHUNK and now >= deadline:
                    raise _Deadline

            error = None
            try:
                rrnet.train_model(self.samples, self.CFG, self.SETTINGS, log_fn=log_fn)
            except _Deadline:
                pass
            except Exception as e:  # the program failed: count the chunk, keep measuring
                error = f"train_model raised {type(e).__name__}: {e}"
            finally:
                if self.tracer is not None:
                    self.tracer.phase = None
            error = error or check_losses(losses, self.expected)
            if error is None and len(losses) > len(self.expected):
                self.expected = losses
            if times or error:
                stats.add(times, 8 * len(times), error, attempted=max(len(times), 1))


class _Deadline(Exception):
    """Raised from log_fn to end a training chunk when the run's time is up."""


class Infer224(Workload):
    """`predict` under no_grad on a stream of 8 seeded 224 px images, with
    parameters from init_network_params(seed)."""

    op = unit = "image"
    CFG = rrnet.NetworkConfig(input_size=(224, 224))
    STREAM = 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.seen: dict[int, bytes] = {}
        self.count = 0

    def setup(self) -> None:
        self.params = rrnet.init_network_params(self.CFG, self.seed)
        self.images = [s.image for s in rrnet.synth_dataset(self.STREAM, self.seed, 224)]

    def _predict(self, i: int) -> tuple[float, str | None]:
        image = rrnet.Tensor(self.images[i % self.STREAM])
        start = time.perf_counter()
        with rrnet.no_grad():
            m = rrnet.predict(image, self.params, self.CFG).map.data
        elapsed = time.perf_counter() - start
        error = check_map(m, self.CFG.input_size)
        first = self.seen.setdefault(i % self.STREAM, m.tobytes())
        if error is None and m.tobytes() != first:
            error = f"image {i % self.STREAM}: a second prediction differs from the first"
        return elapsed, error

    def reference_run(self) -> list[float]:
        """Summary of the map of image 0 on the reference seed (see checks.map_summary)."""
        seed = REFERENCE["infer224"]["seed"]
        params = rrnet.init_network_params(self.CFG, seed)
        image = rrnet.Tensor(rrnet.synth_dataset(1, seed, 224)[0].image)
        with rrnet.no_grad():
            return map_summary(rrnet.predict(image, params, self.CFG).map.data)

    def check(self) -> str | None:
        ref = REFERENCE["infer224"]
        error = self._predict(0)[1]
        return error or check_reference("infer224 map", self.reference_run(), ref["summary"], atol=ref["atol"])

    def loop(self, deadline: float, stats: Stats) -> None:
        while time.perf_counter() < deadline:
            self.count += 1
            try:
                with _traced(self.tracer):
                    elapsed, error = self._predict(self.count)
            except Exception as e:  # the program failed: count it, keep measuring
                stats.add([], 0, f"predict raised {type(e).__name__}: {e}")
            else:
                stats.add([elapsed], 1, error)


@contextlib.contextmanager
def _traced(tracer):
    if tracer is None:
        yield
        return
    tracer.op += 1
    tracer.phase = "loop"
    try:
        yield
    finally:
        tracer.phase = None


class Cli64(Workload):
    """One `rrnet infer` process per 64 px image, as the README documents,
    with a checkpoint from `rrnet train --iters 0`. Each process is the
    benchmark's launcher, which runs rrnet.cli.main; in a traced run it
    installs the span wrappers first."""

    op, unit = "process", "image"
    CFG = rrnet.NetworkConfig(input_size=(64, 64))  # what `rrnet train --size 64` configures
    INPUTS = 4

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.seen: dict[int, bytes] = {}
        self.count = 0
        self.peak_rss_kib = 0

    def _run(self, args: list[str], phase: str) -> tuple[float, int, str]:
        """Run the launcher; returns (wall seconds, exit code, stderr tail)."""
        cmd = [sys.executable, str(HERE / "launch.py")]
        spans = self.work / "spans.json"
        if self.tracer is not None:
            cmd += ["--spans", str(spans)]
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + args, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 also gives the child's peak RSS
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # the child is reaped already
        if phase == "loop":
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if self.tracer is not None and spans.exists():
            self.tracer.op += 1
            self.tracer.merge(load_spans(spans), phase, self.tracer.op)
            spans.unlink()
        return elapsed, proc.returncode, err_path.read_text(errors="replace")[-300:]

    def prepare(self) -> None:
        """Write the inputs and predict each in this process from the parameters
        `rrnet train --iters 0 --seed N` saves: every child's map must match."""
        params = rrnet.train_model(
            rrnet.synth_dataset(1, self.seed, 64), self.CFG, rrnet.TrainSettings(iterations=0, seed=self.seed)
        ).params
        self.expected = []
        for i, s in enumerate(rrnet.synth_dataset(self.INPUTS, self.seed, 64)):
            pixels = _write_pnm(self.work / f"in{i}.ppm", b"P6", s.image)
            with rrnet.no_grad():
                m = rrnet.predict(rrnet.Tensor(pixels.astype(np.float32) / 255.0), params, self.CFG).map.data
            self.expected.append(_quantize(m))
        self.setup()

    def setup(self) -> None:
        args = ["train", "--synthetic", "1", "--iters", "0", "--size", "64", "--seed", str(self.seed)]
        _, code, err = self._run(args + ["--out", str(self.work / "model.ck")], "setup")
        if code != 0:
            raise RuntimeError(f"rrnet train --iters 0 exited with {code}: {err}")

    def _infer(self, i: int, phase: str) -> tuple[float, str | None]:
        k = i % self.INPUTS
        out = self.work / f"out{k}.pgm"
        out.unlink(missing_ok=True)
        args = ["infer", "--checkpoint", str(self.work / "model.ck")]
        args += ["--input", str(self.work / f"in{k}.ppm"), "--output", str(out)]
        elapsed, code, err = self._run(args, phase)
        if code != 0:
            return elapsed, f"rrnet infer exited with {code}: {err}"
        data = out.read_bytes() if out.exists() else b""
        error = check_pgm(data, 64, 64) or check_same_pgm(data, self.expected[k])
        first = self.seen.setdefault(k, data)
        if error is None and data != first:
            error = f"input {k}: a second rrnet infer wrote different bytes"
        return elapsed, error

    def check(self) -> str | None:
        return self._infer(0, "warmup")[1]

    def loop(self, deadline: float, stats: Stats) -> None:
        while time.perf_counter() < deadline:
            self.count += 1
            elapsed, error = self._infer(self.count, "loop")
            stats.add([elapsed], 1, error)


class Eval224(Workload):
    """Repeated in-process `rrnet eval` (cli.main) over 16 seeded 224 px
    map/mask pairs. Maps alternate soft and near-binary; 2 masks are all
    background. The network does no work here: PGM reads and the metric
    suite do all of it."""

    N = 16
    BACKGROUND = (5, 10)  # indexes of the all-background masks
    op, unit = "eval call", "image"
    images_per_op, fg_images_per_op = N, N - len(BACKGROUND)

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.first_report: str | None = None

    @classmethod
    def masks(cls, seed: int) -> list[np.ndarray]:
        """The foreground masks, made by rrnet."""
        return [s.mask for s in rrnet.synth_dataset(cls.N - len(cls.BACKGROUND), seed, 224)]

    @classmethod
    def write_pairs(cls, seed: int, masks: list[np.ndarray], root: Path) -> tuple[dict[str, float], list[str]]:
        """Write pred/ and gt/ PGMs; returns the independent per-image MAE
        and the ids of the all-background masks."""
        (root / "pred").mkdir(parents=True, exist_ok=True)
        (root / "gt").mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        shapes = iter(masks)
        expected_mae, background = {}, []
        for i in range(cls.N):
            sid = f"e{i:03d}"
            if i in cls.BACKGROUND:
                mask = np.zeros((224, 224))
                background.append(sid)
            else:
                mask = next(shapes).astype(np.float64)
            if i % 2 == 0:  # soft map
                pred = np.clip(0.25 + 0.5 * mask + rng.normal(0.0, 0.12, mask.shape), 0.0, 1.0)
            else:  # near-binary map with 2% of pixels flipped
                flip = rng.random(mask.shape) < 0.02
                pred = np.where((mask > 0.5) ^ flip, 0.97, 0.03)
            _write_pnm(root / "pred" / f"{sid}.pgm", b"P5", pred)
            _write_pnm(root / "gt" / f"{sid}.pgm", b"P5", mask)
            s = pgm_pixels((root / "pred" / f"{sid}.pgm").read_bytes()).astype(np.float32) / 255.0
            gt = pgm_pixels((root / "gt" / f"{sid}.pgm").read_bytes()) >= 128
            expected_mae[sid] = float(np.mean(np.abs(s.astype(np.float64) - gt)))
        return expected_mae, background

    def setup(self) -> None:
        # rrnet's part of making the pairs; writing them is the benchmark's own work
        self.shapes = self.masks(self.seed)

    def prepare(self) -> None:
        self.setup()
        self.expected_mae, self.background = self.write_pairs(self.seed, self.shapes, self.work / "set")

    def _eval(self, root: Path) -> tuple[float, int, str]:
        args = ["eval", "--pred", str(root / "pred"), "--gt", str(root / "gt")]
        args += ["--report", str(root / "report.json"), "--prcurve", str(root / "pr.csv")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = rrnet.cli.main(args)
            elapsed = time.perf_counter() - start
        return elapsed, code, sink.getvalue()[-300:]

    def reference_run(self) -> dict[str, float]:
        """Report aggregates on the pairs of the reference seed."""
        root, seed = self.work / "reference", REFERENCE["eval224"]["seed"]
        self.write_pairs(seed, self.masks(seed), root)
        _, code, out = self._eval(root)
        if code != 0:
            raise RuntimeError(f"rrnet eval exited with {code}: {out}")
        agg = json.loads((root / "report.json").read_text())["aggregate"]
        return {k: agg[k] for k in ("mae", "f_beta_max", "e_m", "s_m")}

    def check(self) -> str | None:
        ref = REFERENCE["eval224"]
        got = self.reference_run()
        want = [ref["aggregate"][k] for k in got]
        return check_reference("eval224 aggregates", list(got.values()), want, ref["rtol"])

    def loop(self, deadline: float, stats: Stats) -> None:
        root = self.work / "set"
        while time.perf_counter() < deadline:
            try:
                with _traced(self.tracer):
                    elapsed, code, out = self._eval(root)
            except Exception as e:  # the program failed: count it, keep measuring
                stats.add([], 0, f"rrnet eval raised {type(e).__name__}: {e}")
                continue
            if code != 0:
                error = f"rrnet eval exited with {code}: {out}"
            else:
                text = (root / "report.json").read_text()
                error = check_report(text, self.expected_mae, self.background)
                self.first_report = self.first_report or text
                if error is None and text != self.first_report:
                    error = "a repeated rrnet eval wrote a different report"
            stats.add([elapsed], self.N, error)


WORKLOADS = {"train64": Train64, "infer224": Infer224, "cli64": Cli64, "eval224": Eval224}


def reference_values(work: Path) -> dict:
    """The contents of reference.json, recomputed from the code as it stands."""
    return {
        "train64": {**REFERENCE["train64"], "losses": Train64(0, work).reference_run()},
        "infer224": {**REFERENCE["infer224"], "summary": Infer224(0, work).reference_run()},
        "eval224": {**REFERENCE["eval224"], "aggregate": Eval224(0, work).reference_run()},
    }
