"""Golden output digests: the SHA-256 of each end-to-end artifact.

    python tests/make_golden_digests.py          # rewrite tests/golden_digests.json
    python tests/make_golden_digests.py --print  # print the digests as JSON

`tests/test_golden_digests.py` runs the second form in a subprocess and
compares it with the file. The artifacts are:

- the default-variant `predict` map at 64 and 224 px, for
  `init_network_params(cfg, 0)` on a `default_rng(1)` uniform image;
- the checkpoint and loss lines of `rrnet train --synthetic 4 --iters 3
  --size 64`, and its `rrnet infer` PGM of a 96 px `rrnet gen-data` image;
- the checkpoint of `rrnet train --manifest` on 96 px images at `--size 64`,
  with and without `--no-augment`, so every draw is resized;
- `rrnet eval`'s `report.json` and `pr.csv` on 6 seeded 64 px map/mask pairs.

The bytes depend on numpy, the BLAS build and the CPU it picks kernels for,
so the file records those, and the test skips where any of them differs.
One OpenBLAS thread is pinned, since 224 px maps differ across thread counts.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from rrnet import NetworkConfig, Tensor, init_network_params, no_grad, predict  # noqa: E402
from rrnet.cli import main  # noqa: E402
from rrnet.dataio import synth_dataset, write_pgm  # noqa: E402


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": f"{platform.machine()} {cpu}".strip(),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> str:
    """Run one rrnet command in this process; its stdout, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"rrnet {' '.join(argv)} exited {code}")
    return out.getvalue()


def digests() -> dict[str, str]:
    found = {}
    for n in (64, 224):
        cfg = NetworkConfig(input_size=(n, n))
        image = np.random.default_rng(1).uniform(size=(n, n, 3)).astype(np.float32)
        with no_grad():
            found[f"predict.{n}"] = _sha(predict(Tensor(image), init_network_params(cfg, 0), cfg).map.data.tobytes())

    with tempfile.TemporaryDirectory() as tmp:
        t = Path(tmp)
        log = _cli("train", "--synthetic", "4", "--iters", "3", "--size", "64", "--out", str(t / "s.ck"))
        found["train.synthetic4.checkpoint"] = _sha((t / "s.ck").read_bytes())
        found["train.synthetic4.log"] = _sha("".join(ln + "\n" for ln in log.splitlines() if "\t" in ln).encode())
        _cli("gen-data", "--out", str(t / "d96"), "--count", "2", "--seed", "3", "--size", "96")
        _cli("infer", "--checkpoint", str(t / "s.ck"), "--input", str(t / "d96/images/synth0000.ppm"),
             "--output", str(t / "map.pgm"))
        found["infer.pgm"] = _sha((t / "map.pgm").read_bytes())
        for name, flags in (("augment", ()), ("no_augment", ("--no-augment",))):
            _cli("train", "--manifest", str(t / "d96/manifest.txt"), "--iters", "2", "--batch", "3", "--size", "64",
                 "--seed", "5", *flags, "--out", str(t / "m.ck"))
            found[f"train.manifest96.{name}.checkpoint"] = _sha((t / "m.ck").read_bytes())

        rng = np.random.default_rng(5)
        for d in ("pred", "gt"):
            (t / d).mkdir()
        for s in synth_dataset(6, seed=5, size=64):
            write_pgm(t / "gt" / f"{s.id}.pgm", s.mask)
            write_pgm(t / "pred" / f"{s.id}.pgm", np.clip(0.6 * s.mask + 0.4 * rng.uniform(size=s.mask.shape), 0, 1))
        _cli("eval", "--pred", str(t / "pred"), "--gt", str(t / "gt"), "--report", str(t / "report.json"),
             "--prcurve", str(t / "pr.csv"))
        found["eval.report.json"] = _sha((t / "report.json").read_bytes())
        found["eval.pr.csv"] = _sha((t / "pr.csv").read_bytes())
    return found


if __name__ == "__main__":
    text = json.dumps({"environment": environment(), "digests": digests()}, indent=2) + "\n"
    if sys.argv[1:] == ["--print"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
