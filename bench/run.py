"""rrnet benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every metric, by name and unit

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 measures the per-layer metrics: slices of the time alternate
untraced and with span wrappers installed, and the difference between them
is reported as the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Details (environment, tail percentile and sample count, spans) go to .bench_out/.
"""

import os

# BLAS and evaluation threads are pinned to 1 before numpy loads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RRNET_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train64", "infer224", "cli64", "eval224")
SLICES = 5  # slices of a measured run; set-ups run at the start of each
SETUPS_PER_SLICE = 3

CONV_KINDS = ("k1s1", "k3s1", "k3s2", "k5s1", "k7s1")
# spans whose self time is reported per operation of the measured loop
LOOP_SPANS = (
    [f"tensor.conv2d.{k}" for k in CONV_KINDS]
    + ["tensor.backward"]
    + ["attention.pma.s1", "attention.pma.s2", "attention.left_branch"]
    + ["attention.right_branch", "attention.fuse_maps"]
    + [f"graph.{kind}.s{s}" for kind in ("srr", "crr") for s in (3, 4, 5)]
    + ["network.predict", "network.encode", "network.decode_fuse", "network.balanced_bce_loss"]
    + ["network.init_network_params", "optim.adam_step"]
    + ["dataio.load_checkpoint", "dataio.read_ppm", "dataio.write_pgm", "dataio.resize_bilinear"]
    + ["cli.import", "dataio.read_pgm", "dataio.read_mask", "metrics.evaluate_pair"]
    + [f"metrics.{m}" for m in ("mae", "pr_curve", "f_measure", "s_measure", "e_measure")]
)
# spans whose self time is reported per set-up repetition
SETUP_SPANS = ("dataio.synth_dataset", "dataio.resize_sample")


def metric_of(span: str) -> str:
    if span.startswith("tensor.conv2d."):
        return span + ".fwd_ms"
    if span == "cli.import":
        return "cli.import_ms"
    return span + ".ms"


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "items_per_s": "1/s",
}
PER_LAYER_UNITS = {
    **{metric_of(s): "ms" for s in LOOP_SPANS + list(SETUP_SPANS)},
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.col_mib": "MiB",
    "metrics.pr_curve.calls_per_image": "count",
    "trace.overhead_pct": "%",
}
# the per-workload names the end-to-end metrics answer to
ALIASES = {
    "train64": {
        "op_ms.p50": "train.iter_ms.p50",
        "op_ms.tail": "train.iter_ms.tail",
        "items_per_s": "train.samples_per_s",
    },
    "infer224": {"op_ms.p50": "infer.ms.p50", "op_ms.tail": "infer.ms.tail"},
    "cli64": {"op_ms.p50": "cli.infer_ms.p50", "op_ms.tail": "cli.infer_ms.tail"},
    "eval224": {"items_per_s": "eval.images_per_s"},
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile that leaves at least 10 samples beyond it:
    (value, percentile, sample count). With 10 samples or fewer, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11  # xs[k] has exactly 10 samples after it
    return xs[k], 100.0 * (k + 1) / n, n


def environment(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rrnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def layer_metrics(tracer, wl, stats, setups: int, wall_ms: float) -> tuple[dict, list]:
    """Per-layer metrics from the traced slices, and the rows of the table."""
    from tracer import summarize

    loop, setup = summarize(tracer.spans, "loop"), summarize(tracer.spans, "setup")
    units = len(stats.times) * wl.images_per_op
    values, rows = {}, []
    for span in LOOP_SPANS + list(SETUP_SPANS):
        summary, n = (setup, setups) if span in SETUP_SPANS else (loop, units)
        row = summary.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nbytes": 0})
        values[metric_of(span)] = 1000.0 * row["self_s"] / n
        if row["calls"]:
            ms = 1000.0 / n
            calls, self_ms, total_ms = row["calls"] / n, ms * row["self_s"], ms * row["total_s"]
            rows.append((metric_of(span), calls, self_ms, total_ms, span in SETUP_SPANS))
    convs = [loop.get(f"tensor.conv2d.{k}", {"calls": 0, "nbytes": 0}) for k in CONV_KINDS]
    values["tensor.conv2d.calls"] = sum(c["calls"] for c in convs) / units
    values["tensor.conv2d.col_mib"] = sum(c["nbytes"] for c in convs) / units / 2**20
    fg = len(stats.times) * wl.fg_images_per_op
    pr_calls = loop.get("metrics.pr_curve", {"calls": 0})["calls"]
    values["metrics.pr_curve.calls_per_image"] = pr_calls / fg if fg else 0.0
    attributed = sum(r[2] for r in rows if not r[4])
    rows.append(("(not in any span)", 0.0, wall_ms - attributed, wall_ms - attributed, False))
    return values, rows


def print_table(name: str, wl, rows: list, wall_ms: float, overhead: dict) -> None:
    print(f"\n{name}: per {wl.unit} (set-up rows: per set-up), traced wall {wall_ms:.2f} ms/{wl.unit}")
    print(f"{'metric':42} {'calls':>9} {'self ms':>10} {'total ms':>10} {'share':>7}")
    for metric, calls, self_ms, total_ms, is_setup in rows:
        share = "set-up" if is_setup else f"{100.0 * self_ms / wall_ms:6.1f}%"
        print(f"{metric:42} {calls:9.2f} {self_ms:10.3f} {total_ms:10.3f} {share:>7}")
    print(
        f"tracing overhead: op p50 {overhead['untraced_p50_ms']:.2f} ms untraced, "
        f"{overhead['traced_p50_ms']:.2f} ms traced ({overhead['pct']:+.2f}%)"
    )


def measure(wl, seconds: float, stats, tracer=None, untraced=None) -> list[float]:
    """Alternate set-ups and the measured loop over equal slices of `seconds`,
    so that the median set-up time samples the whole run and not one moment
    of it. Returns the times of the set-ups that succeeded; a set-up that
    raises counts as one failed operation.

    With a tracer, slices alternate untraced (operations go to `untraced`)
    and traced (wrappers installed, operations go to `stats`, set-ups traced
    under phase "setup"), so that the tracing overhead compares neighbouring
    slices rather than two halves of the run.
    """
    from tracer import install

    slices = SLICES * (2 if tracer else 1)
    setup_times = []
    end = time.perf_counter() + seconds
    for k in range(slices):
        traced = tracer is not None and k % 2 == 1
        target = stats if traced or tracer is None else untraced
        uninstall = install(tracer) if traced else None
        wl.tracer = tracer if traced else None
        for _ in range(SETUPS_PER_SLICE):
            if traced:
                tracer.phase = "setup"
            start = time.perf_counter()
            try:
                wl.setup()
            except Exception as e:  # the program failed: count it, keep measuring
                target.add([], 0, f"set-up raised {type(e).__name__}: {e}")
                continue
            finally:
                if traced:
                    tracer.phase = None
            if target is stats:
                setup_times.append(time.perf_counter() - start)
        now = time.perf_counter()
        wl.loop(now + (end - now) / (slices - k), target)
        if uninstall:
            uninstall()
    wl.tracer = None
    return setup_times


def run(args) -> int:
    if not (SRC / "rrnet" / "__init__.py").is_file():
        print(f"error: no rrnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rrnet

    if Path(rrnet.__file__).resolve().parent != (SRC / "rrnet").resolve():
        print(f"error: imported rrnet from {rrnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, Stats

    OUT.mkdir(exist_ok=True)
    env = environment(args)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as work:
        wl = WORKLOADS[args.workload](args.seed, Path(work))
        try:
            wl.prepare()  # inputs for the check and the loop; not timed
            error = wl.check()
        except Exception as e:  # the program failed outright
            error = f"prepare or check raised {type(e).__name__}: {e}"
        check = Stats()
        check.add([], 0, error)

        stats, untraced = Stats(), Stats()
        tracer = Tracer() if args.trace else None
        setup_times = measure(wl, args.seconds, stats, tracer, untraced)
        parts = (check, untraced, stats)
        # cli64 reports its largest child; the others, their own process
        peak_kib = getattr(wl, "peak_rss_kib", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    if not stats.times or not setup_times or (args.trace and not untraced.times):
        print("error: no operation or no set-up completed in the measured time", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    detail = {"env": env, "setup_times_s": setup_times, "op": wl.op, "op_times_s": stats.times}
    if args.trace:
        wall_ms = 1000.0 * sum(stats.times) / (len(stats.times) * wl.images_per_op)
        values, rows = layer_metrics(tracer, wl, stats, len(setup_times), wall_ms)
        traced_p50 = 1000.0 * statistics.median(stats.times)
        untraced_p50 = 1000.0 * statistics.median(untraced.times)
        overhead = {
            "untraced_p50_ms": untraced_p50,
            "traced_p50_ms": traced_p50,
            "pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
        }
        values["trace.overhead_pct"] = overhead["pct"]
        unit_of = PER_LAYER_UNITS
        print_table(args.workload, wl, rows, wall_ms, overhead)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        detail.update(tracing_overhead=overhead, spans=str(spans_path.relative_to(ROOT)))
    else:
        t_value, t_pct, t_n = tail(stats.times)
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_kib / 1024.0,
            "op_ms.p50": 1000.0 * statistics.median(stats.times),
            "op_ms.tail": 1000.0 * t_value,
            "items_per_s": stats.items / sum(stats.times),
        }
        unit_of = END_TO_END_UNITS
        detail["tail"] = {"percentile": t_pct, "n": t_n}
        detail["aliases"] = {alias: values[m] for m, alias in ALIASES[args.workload].items()}
        print(f"\n{args.workload}: {len(stats.times)} x {wl.op}, tail = p{t_pct:.1f} of n={t_n}")
        for name, value in values.items():
            alias = ALIASES[args.workload].get(name, "")
            print(f"  {name:14} {value:12.4f} {unit_of[name]:5} {alias}")
    print(f"env: {json.dumps(env)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()},
    }
    detail.update(result=result, ops_failed_ratio=failed / attempted)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print("\n".join(line for line in lines[:-1] if not line.startswith("env:")))
            ratio = result["failed"] / result["attempted"]
            counts = f"{result['failed']}/{result['attempted']}"
            print(f"== {name} trace={trace}: ops_failed_ratio {ratio:g} ({counts})")
            for metric, m in result["metrics"].items():
                print(f"   {name}.{metric:40} {m['value']:14.4f} {m['unit']}")
            status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
