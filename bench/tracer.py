"""Span tracer: timing wrappers around rrnet's public functions.

A wrapper records one span per call: name, start, end, parent span, phase
("setup" or "loop") and the id of the measured operation it ran for. A span's
self time is its duration minus the time its direct children cover.

Several rrnet modules import functions by name (network and attention import
conv2d, training imports predict and balanced_bce_loss, cli imports
init_network_params), so a wrapper replaces the original object in every
rrnet module that binds it, not only in the module that defines it.

This module imports neither numpy nor rrnet at load time, so the CLI launcher
can time the import of rrnet.cli on its own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span field indexes: [name, start, end, parent, phase, op, nbytes]
NAME, START, END, PARENT, PHASE, OP, NBYTES = range(7)


class Tracer:
    """Keeps spans in memory; a span is recorded only while `phase` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase: str | None = None
        self.op = 0
        self.image_h: int | None = None  # input height of the current encode call
        self._stack: list[int] = []

    def call(self, name: str, nbytes: int, fn, args, kwargs):
        if self.phase is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.phase, self.op, nbytes]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (the CLI import)."""
        self.spans.append([name, start, end, -1, self.phase, self.op, 0])

    def merge(self, spans: list[list], phase: str, op: int) -> None:
        """Append spans recorded by another process under this phase and op."""
        base = len(self.spans)
        for s in spans:
            parent = s[PARENT] + base if s[PARENT] >= 0 else -1
            self.spans.append([s[NAME], s[START], s[END], parent, phase, op, s[NBYTES]])

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "phase", "op", "nbytes")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def load_spans(path) -> list[list]:
    with open(path) as f:
        return [
            [d["name"], d["start"], d["end"], d["parent"], d["phase"], d["op"], d["nbytes"]]
            for d in json.load(f)
        ]


def summarize(spans: list[list], phase: str) -> dict[str, dict]:
    """Per span name: calls, self seconds, total seconds and bytes, in one phase."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for s, c in zip(spans, child):
        if s[PHASE] != phase:
            continue
        row = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nbytes": 0})
        dur = s[END] - s[START]
        row["calls"] += 1
        row["self_s"] += dur - c
        row["total_s"] += dur
        row["nbytes"] += s[NBYTES]
    return out


# -- what gets wrapped, and how each call is named ------------------------------


def _stage(tracer: Tracer, x) -> str:
    """Stage s of a feature map whose height is the input height / 2**s."""
    return f"s{(tracer.image_h // x.shape[0]).bit_length() - 1}"


def _conv2d(tracer, x, w, b=None, stride=1):
    # im2col bytes computed from the shapes; a 1x1 stride-1 conv reshapes in place
    k = w.shape[0]
    h, wd, cin = x.shape
    h_out, w_out = -(-h // stride), -(-wd // stride)
    col = 0 if (k == 1 and stride == 1) else h_out * w_out * cin * k * k * x.dtype.itemsize
    return f"tensor.conv2d.k{k}s{stride}", col


def _encode(tracer, image, params, cfg):
    tracer.image_h = image.shape[0]
    return "network.encode", 0


def _pma(tracer, x, p, branch="both"):
    return f"attention.pma.{_stage(tracer, x)}", 0


def _srr(tracer, x, p, residual=False):
    return f"graph.srr.{_stage(tracer, x)}", 0


def _crr(tracer, x, p, residual=False):
    return f"graph.crr.{_stage(tracer, x)}", 0


# (defining module, attribute, span name or namer(tracer, *args, **kwargs))
TARGETS = [
    ("rrnet.tensor", "conv2d", _conv2d),
    ("rrnet.tensor", "Tensor.backward", "tensor.backward"),
    ("rrnet.attention", "pma", _pma),
    ("rrnet.attention", "left_branch", "attention.left_branch"),
    ("rrnet.attention", "right_branch", "attention.right_branch"),
    ("rrnet.attention", "fuse_maps", "attention.fuse_maps"),
    ("rrnet.graph", "srr", _srr),
    ("rrnet.graph", "crr", _crr),
    ("rrnet.network", "predict", "network.predict"),
    ("rrnet.network", "encode", _encode),
    ("rrnet.network", "decode_fuse", "network.decode_fuse"),
    ("rrnet.network", "balanced_bce_loss", "network.balanced_bce_loss"),
    ("rrnet.network", "init_network_params", "network.init_network_params"),
    ("rrnet.optim", "Adam.step", "optim.adam_step"),
    ("rrnet.dataio", "load_checkpoint", "dataio.load_checkpoint"),
    ("rrnet.dataio", "read_ppm", "dataio.read_ppm"),
    ("rrnet.dataio", "write_pgm", "dataio.write_pgm"),
    ("rrnet.dataio", "resize_bilinear", "dataio.resize_bilinear"),
    ("rrnet.dataio", "read_pgm", "dataio.read_pgm"),
    ("rrnet.dataio", "read_mask", "dataio.read_mask"),
    ("rrnet.dataio", "synth_dataset", "dataio.synth_dataset"),
    ("rrnet.dataio", "resize_sample", "dataio.resize_sample"),
    ("rrnet.metrics", "evaluate_pair", "metrics.evaluate_pair"),
    ("rrnet.metrics", "mae", "metrics.mae"),
    ("rrnet.metrics", "pr_curve", "metrics.pr_curve"),
    ("rrnet.metrics", "f_measure", "metrics.f_measure"),
    ("rrnet.metrics", "s_measure", "metrics.s_measure"),
    ("rrnet.metrics", "e_measure", "metrics.e_measure"),
]


def _wrapper(tracer: Tracer, fn, label):
    if callable(label):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            name, nbytes = label(tracer, *args, **kwargs)
            return tracer.call(name, nbytes, fn, args, kwargs)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(label, 0, fn, args, kwargs)

    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    import rrnet.cli  # noqa: F401  (imports every module that binds a target)

    modules = [m for n, m in sys.modules.items() if n == "rrnet" or n.startswith("rrnet.")]
    undo: list[tuple[object, str, object]] = []
    for modname, attr, label in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:  # a method: replace it on its class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
            undo.append((owner, attr, orig))
            setattr(owner, attr, _wrapper(tracer, orig, label))
            continue
        orig = getattr(owner, attr)
        wrapper = _wrapper(tracer, orig, label)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is orig]:
                undo.append((m, key, orig))
                setattr(m, key, wrapper)

    def uninstall() -> None:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall
