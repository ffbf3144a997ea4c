"""Finite-difference gradient checking and the self-check battery."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor, no_grad

__all__ = [
    "numerical_gradient",
    "gradcheck",
    "GradCheckResult",
    "op_cases",
    "run_self_check",
    "CheckResult",
]


def numerical_gradient(loss_fn: Callable[[], Tensor], leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one leaf tensor.

    loss_fn must rebuild the forward pass from the leaves on every call.
    """
    grad = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = loss_fn().item()
            flat[i] = saved - h
            down = loss_fn().item()
            flat[i] = saved
            gflat[i] = (up - down) / (2.0 * h)
    return grad


@dataclass
class GradCheckResult:
    ok: bool
    max_rel_error: float
    worst_param: str = ""

    def __bool__(self) -> bool:
        return self.ok


def gradcheck(
    loss_fn: Callable[[], Tensor],
    leaves: Sequence[tuple[str, Tensor]],
    h: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-7,
) -> GradCheckResult:
    """Compare reverse-mode gradients of (name, leaf) pairs against central
    finite differences.

    An element fails when |analytic - numeric| exceeds both
    rtol * max(|analytic|, |numeric|) and atol, and any non-finite gradient
    fails with an infinite max_rel_error. Run this in double precision;
    float32 forward noise swamps the h=1e-5 differences.
    """
    for _, leaf in leaves:
        leaf.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: np.array(leaf.grad, copy=True) for name, leaf in leaves}
    worst = 0.0
    worst_name = ""
    ok = True
    for name, leaf in leaves:
        numeric = numerical_gradient(loss_fn, leaf, h=h)
        a, n = analytic[name], numeric
        if not (np.isfinite(a).all() and np.isfinite(n).all()):  # NaN fails no bound below
            ok, worst, worst_name = False, np.inf, name
            continue
        diff = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        rel = diff / np.maximum(scale, 1e-12)
        fail = (diff > atol) & (diff > rtol * scale)
        considered = rel[diff > atol]
        local = float(considered.max()) if considered.size else 0.0
        if local > worst:
            worst, worst_name = local, name
        if fail.any():
            ok = False
    return GradCheckResult(ok=ok, max_rel_error=worst, worst_param=worst_name)


# -- self-check battery -----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def op_cases(rng):
    """The per-op gradient-check catalog, as (name, build) pairs.

    Each build() makes fresh double-precision leaves from rng and returns
    (named leaves, loss_fn); loss_fn re-runs the forward pass from those
    leaves, which is what finite differencing needs.
    """

    from .graph import crr, graph_reason, reasoning_shapes, srr

    def binary(op, sa, sb):
        a = _leaf(rng, *sa)
        b = _leaf(rng, *sb)
        return [("a", a), ("b", b)], lambda: T.tensor_sum(op(a, b) ** 2.0)

    def unary(op, shape):
        a = _leaf(rng, *shape)
        return [("a", a)], lambda: T.tensor_sum(op(a) ** 2.0)

    def conv(sx, sw, stride=1, bias=False):
        x, w = _leaf(rng, *sx), _leaf(rng, *sw)
        b = _leaf(rng, sw[3]) if bias else None
        leaves = [("x", x), ("w", w)] + ([("bias", b)] if bias else [])
        return leaves, lambda: T.tensor_sum(T.conv2d(x, w, b, stride=stride) ** 2.0)

    def reasoning(op, sx, feature_dim, tie=False):
        x = _leaf(rng, *sx)
        if tie:  # tied rows send canonical_vertex_order down its lexsort path
            x.data[3], x.data[5] = x.data[1], x.data[0]
        p = {name: _leaf(rng, *shape) for name, shape in reasoning_shapes(feature_dim).items()}
        return [("x", x)] + list(p.items()), lambda: T.tensor_sum(op(x, p) ** 2.0)

    yield "add", lambda: binary(T.add, (3, 4), (3, 4))
    yield "add_broadcast", lambda: binary(T.add, (3, 4), (1, 4))
    yield "mul", lambda: binary(T.mul, (3, 4), (3, 4))
    yield "mul_broadcast_channel", lambda: binary(T.mul, (3, 4, 2), (3, 4, 1))
    yield "mul_outer", lambda: binary(T.mul, (4, 1), (1, 4))
    yield "matmul", lambda: binary(T.matmul, (3, 5), (5, 2))
    yield "conv2d_k3", lambda: conv((5, 5, 2), (3, 3, 2, 2))
    yield "conv2d_k3_bias", lambda: conv((5, 5, 2), (3, 3, 2, 2), bias=True)
    yield "conv2d_k1", lambda: conv((4, 4, 3), (1, 1, 3, 2))
    yield "conv2d_k5", lambda: conv((6, 6, 2), (5, 5, 2, 2))
    yield "conv2d_k7_descriptor", lambda: conv((6, 6, 2), (7, 7, 2, 1))
    yield "conv2d_stride2", lambda: conv((6, 6, 2), (3, 3, 2, 2), stride=2)
    yield "conv2d_stride2_odd", lambda: conv((7, 5, 2), (3, 3, 2, 2), stride=2)
    yield "conv2d_k1_stride2", lambda: conv((5, 5, 3), (1, 1, 3, 2), stride=2)
    yield "conv2d_k3_nonsquare_bias", lambda: conv((4, 7, 3), (3, 3, 3, 2), bias=True)
    yield "conv2d_k5_stride2_odd", lambda: conv((7, 7, 2), (5, 5, 2, 3), stride=2)
    yield "conv2d_k7_stride2", lambda: conv((6, 5, 2), (7, 7, 2, 2), stride=2)
    yield "relu", lambda: unary(T.relu, (4, 4))
    yield "sigmoid", lambda: unary(T.sigmoid, (4, 4))
    yield "softmax", lambda: unary(T.softmax, (4, 5))
    yield "transpose", lambda: unary(T.transpose, (3, 5))
    yield "reshape", lambda: unary(lambda a: T.reshape(a, (15,)), (3, 5))
    yield "sum_axis", lambda: unary(lambda a: T.tensor_sum(a, axis=1), (4, 5))
    yield "upsample2x", lambda: unary(T.upsample2x, (3, 4, 2))
    yield "channel_pool", lambda: unary(T.channel_pool, (3, 3, 5))
    yield "channel_pool_groups", lambda: unary(T.channel_pool, (3, 2, 3, 4))
    yield "power", lambda: unary(lambda a: (a * a + 1.0) ** -0.5, (4, 4))
    yield "log_of_clip", lambda: unary(lambda a: T.log(T.clip(T.sigmoid(a), 1e-7, 1 - 1e-7)), (4, 4))
    yield "concat", lambda: binary(lambda a, b: T.concat([a, b], axis=1), (3, 2), (3, 4))
    yield "take_rows", lambda: unary(lambda a: T.take_rows(a, np.array([3, 0, 2, 2, 1])), (4, 3))
    yield "graph_reason_srr", lambda: reasoning(srr, (3, 3, 4), 4)
    yield "graph_reason_crr", lambda: reasoning(crr, (3, 2, 3), 6)
    yield "graph_reason_tied_rows", lambda: reasoning(graph_reason, (6, 4), 4, tie=True)


def _named_rng(seed: int, name: str) -> np.random.Generator:
    """The generator a check named `name` draws from: its own, so adding or
    removing another check leaves its inputs as they are."""
    return np.random.default_rng((seed, zlib.crc32(name.encode())))


def _op_gradchecks(seed: int, trials: int) -> list[CheckResult]:
    results = []
    for name, _ in op_cases(None):  # the names only: no build runs
        build = dict(op_cases(_named_rng(seed, name)))[name]
        ok = True
        worst = 0.0
        for _ in range(trials):
            leaves, fn = build()
            res = gradcheck(fn, leaves)
            worst = max(worst, res.max_rel_error)
            ok = ok and res.ok
        results.append(CheckResult(f"grad/{name}", ok, f"max rel err {worst:.2e}"))
    return results


def _algebra_checks(rng: np.random.Generator) -> list[CheckResult]:
    from .graph import canonical_vertex_order, crr, reasoning_forward, reasoning_shapes, srr
    from .init import init_params

    results = []
    x = Tensor(rng.standard_normal((4, 4, 6)), dtype=np.float64)
    p = init_params(reasoning_shapes(6), rng, np.float64)
    # the rows srr(x, p) reasons over, in the order graph_reason puts them
    flat = x.data.reshape(16, 6)
    f = reasoning_forward(flat[canonical_vertex_order(flat)], p)
    results.append(CheckResult("graph/adjacency_symmetric", bool(np.array_equal(f.adj, f.adj.T))))
    results.append(CheckResult("graph/adjacency_nonneg", bool((f.adj >= 0).all())))
    eigs = np.linalg.eigvalsh(f.lap)
    results.append(
        CheckResult(
            "graph/laplacian_spectrum",
            bool(eigs.min() >= -1e-8 and eigs.max() <= 2 + 1e-8),
            f"eig range [{eigs.min():.2e}, {eigs.max():.2e}]",
        )
    )
    perm = rng.permutation(16)
    x_perm = Tensor(flat[perm].reshape(4, 4, 6), dtype=np.float64)
    out = srr(x, p).data.reshape(16, 6)
    out_perm = srr(x_perm, p).data.reshape(16, 6)
    results.append(CheckResult("graph/srr_equivariance", bool(np.array_equal(out[perm], out_perm))))
    pc = init_params(reasoning_shapes(16), rng, np.float64)
    perm = rng.permutation(6)
    out = crr(x, pc).data
    out_perm = crr(Tensor(x.data[:, :, perm], dtype=np.float64), pc).data
    results.append(
        CheckResult("graph/crr_equivariance", bool(np.array_equal(out[:, :, perm], out_perm)))
    )
    return results


def _attention_checks(rng: np.random.Generator) -> list[CheckResult]:
    from .attention import pma, pma_shapes
    from .init import init_params

    x = Tensor(rng.standard_normal((8, 8, 4)), dtype=np.float64)
    p = init_params(pma_shapes(4), rng, np.float64)
    a = pma(x, p)
    in_range = bool((a.data > 0).all() and (a.data < 1).all())
    return [CheckResult("attention/map_in_open_unit_interval", in_range)]


def _loss_checks(rng: np.random.Generator) -> list[CheckResult]:
    from .network import balanced_bce_loss, bce_loss

    results = []
    s = Tensor(rng.uniform(0.01, 0.99, size=(6, 6)), dtype=np.float64)
    label = np.zeros((6, 6))
    label[:3] = 1.0  # exactly half foreground
    balanced = balanced_bce_loss(s, label).item()
    plain = bce_loss(s, label).item()
    results.append(
        CheckResult("loss/balanced_is_half_bce", balanced == 0.5 * plain, f"{balanced:.6f}")
    )
    all_bg = balanced_bce_loss(s, np.zeros((6, 6))).item()
    results.append(CheckResult("loss/all_background_fallback", np.isfinite(all_bg) and all_bg > 0))
    return results


def _metric_checks(rng: np.random.Generator) -> list[CheckResult]:
    from .metrics import e_measure, evaluate_pair, f_measure, mae, s_measure

    gt = (rng.uniform(size=(16, 16)) < 0.3).astype(np.float64)
    if gt.sum() == 0:
        gt[4, 4] = 1.0
    # a byte map and a bool mask, as rrnet eval scores them: all 8 symmetries must score the same bytes
    s, fg = rng.integers(0, 256, size=gt.shape, dtype=np.uint8), gt == 1.0
    rows = [evaluate_pair(np.rot90(a, k), np.rot90(b, k)) for a, b in ((s, fg), (s.T, fg.T)) for k in range(4)]
    scores = {(r.mae, r.s_m, r.e_m, r.f_beta_max, r.pr.tobytes()) for r in rows}
    results = [
        CheckResult("metrics/mae_identity", mae(gt, gt) == 0.0),
        CheckResult("metrics/f_identity", abs(f_measure(gt, gt) - 1.0) < 1e-6),
        CheckResult("metrics/s_identity", abs(s_measure(gt, gt) - 1.0) < 1e-6),
        CheckResult("metrics/e_identity", abs(e_measure(gt, gt) - 1.0) < 1e-6),
        CheckResult("metrics/dihedral_invariance", len(scores) == 1, f"{len(scores)} distinct of {len(rows)}"),
    ]
    return results


def run_self_check(trials: int = 5, seed: int = 0) -> list[CheckResult]:
    """A fast version of the verification suites: gradients plus invariants.

    Each op case and each invariant group draws from its own generator,
    seeded from (seed, crc32 of its name)."""
    results = _op_gradchecks(seed, trials)
    for group, checks in (
        ("graph", _algebra_checks),
        ("attention", _attention_checks),
        ("loss", _loss_checks),
        ("metrics", _metric_checks),
    ):
        results.extend(checks(_named_rng(seed, group)))
    return results
