"""Parallel multi-scale attention: two complementary 2-D attention branches.

The left branch computes multi-scale attention maps directly from the
two-channel pooling descriptor of the input; the right branch first extracts
multi-scale features and then applies spatial attention to each. Both
branches average their three scales and a 1x1 fusion conv combines them.

Both branches run as one pass. The input and the three right-branch features
are stacked on a group axis and pooled by one channel_pool call into one
two-channel descriptor per group. One 7x7 conv then gives every attention
map of both branches: its kernel holds each per-scale kernel at that map's
output channel and its group's two input channels, the smaller left kernels
zero-embedded, and zero everywhere else. The kernel is gathered from the
per-scale parameters in every forward pass, so parameter names, shapes and
initialization are those of the per-scale module. One sigmoid and one
per-branch sum over the three scales give the H x W x 2 input of the fusion
conv.
"""

from __future__ import annotations

import numpy as np

# bench/tracer.py wraps conv2d by name in every module that binds it
from .tensor import Tensor, channel_pool, concat, conv2d, relu, reshape, sigmoid, take_rows, tensor_sum

__all__ = [
    "SCALES",
    "conv_shapes",
    "pma_shapes",
    "left_branch",
    "right_branch",
    "fuse_maps",
    "pma",
]

SCALES = (3, 5, 7)
ATT_SIZE = 7  # the attention convs' kernel size, which holds every left kernel


def conv_shapes(k: int, cin: int, cout: int, prefix: str = "") -> dict[str, tuple[int, ...]]:
    """A k x k cin->cout conv: weight prefix+"w" and bias prefix+"b"."""
    return {prefix + "w": (k, k, cin, cout), prefix + "b": (cout,)}


def pma_shapes(channels: int) -> dict[str, tuple[int, ...]]:
    """The module's parameter table in draw order: per scale k, the left
    branch's 2->1 kxk conv "left.k{k}", the right branch's C->C kxk feature
    conv "right.k{k}" and its 2->1 7x7 attention conv "att.k{k}"; then the
    1x1 fusion conv "fuse". Functions below read these names from the dict
    they are given."""
    c = int(channels)
    shapes: dict[str, tuple[int, ...]] = {}
    for k in SCALES:
        shapes |= conv_shapes(k, 2, 1, f"left.k{k}.")
    for k in SCALES:
        shapes |= conv_shapes(k, c, c, f"right.k{k}.")
    for k in SCALES:
        shapes |= conv_shapes(ATT_SIZE, 2, 1, f"att.k{k}.")
    return shapes | conv_shapes(1, 2, 1, "fuse.")


def _attention_kernel(p: dict[str, Tensor], branches: tuple[str, ...]) -> tuple[Tensor, Tensor]:
    """The one 7 x 7 x 2G x 3B attention conv of the branches, and its bias.

    Output channel 3*b + j is branch b's scale j. It reads the two descriptor
    channels of its group: the left branch's group is the input (group 0),
    and the right branch's groups follow, one per scale. The kernel is one
    gather from the flattened per-scale kernels and a trailing zero.
    """
    convs = []  # (parameter prefix, kernel size, group) per output channel
    if "left" in branches:
        convs += [(f"left.k{k}.", k, 0) for k in SCALES]
    if "right" in branches:
        first = len(convs) // len(SCALES)
        convs += [(f"att.k{k}.", ATT_SIZE, first + j) for j, k in enumerate(SCALES)]
    groups = convs[-1][2] + 1
    idx = np.full((ATT_SIZE, ATT_SIZE, 2 * groups, len(convs)), sum(2 * k * k for _, k, _ in convs))
    start = 0
    for o, (_, k, g) in enumerate(convs):
        q = (ATT_SIZE - k) // 2
        idx[q : q + k, q : q + k, 2 * g : 2 * g + 2, o] = start + np.arange(2 * k * k).reshape(k, k, 2)
        start += 2 * k * k
    ws = [reshape(p[pre + "w"], (-1,)) for pre, _, _ in convs]
    flat = concat(ws + [Tensor(np.zeros(1, dtype=ws[0].dtype))], axis=0)
    bias = concat([p[pre + "b"] for pre, _, _ in convs], axis=0)
    return take_rows(flat, idx), bias


def _branch_maps(x: Tensor, p: dict[str, Tensor], branches: tuple[str, ...]) -> Tensor:
    """The branches' attention maps, each averaged over its three scales, as
    H x W x B. branches is ("left",), ("right",) or ("left", "right")."""
    h, w, c = x.shape
    stack = [x] if "left" in branches else []
    if "right" in branches:
        stack += [relu(conv2d(x, p[f"right.k{k}.w"], p[f"right.k{k}.b"])) for k in SCALES]
    d = channel_pool(reshape(concat(stack, axis=2), (h, w, len(stack), c)))
    maps = sigmoid(conv2d(d, *_attention_kernel(p, branches)))
    return tensor_sum(reshape(maps, (h, w, len(branches), len(SCALES))), axis=3) * (1.0 / 3.0)


# bench/tracer.py wraps left_branch, right_branch and fuse_maps by name; pma calls none of them
def left_branch(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Multi-scale attention on the single-scale descriptor, H x W map."""
    return reshape(_branch_maps(x, p, ("left",)), x.shape[:2])


def right_branch(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Spatial attention on multi-scale features, averaged into one H x W map."""
    return reshape(_branch_maps(x, p, ("right",)), x.shape[:2])


def _fuse(maps: Tensor, p: dict[str, Tensor]) -> Tensor:
    return reshape(sigmoid(conv2d(maps, p["fuse.w"], p["fuse.b"])), maps.shape[:2])


def fuse_maps(a_l: Tensor, a_r: Tensor, p: dict[str, Tensor]) -> Tensor:
    """sigmoid(conv1x1(concat(A_l, A_r))), the final H x W attention map."""
    if a_l.shape != a_r.shape:
        raise ValueError(f"attention maps must share a shape, got {a_l.shape} and {a_r.shape}")
    h, w = a_l.shape
    return _fuse(concat([reshape(a_l, (h, w, 1)), reshape(a_r, (h, w, 1))], axis=2), p)


def pma(x: Tensor, p: dict[str, Tensor], branch: str = "both") -> Tensor:
    """The full module; 'left'/'right' feed a duplicated single branch to fuse."""
    if branch == "both":
        return _fuse(_branch_maps(x, p, ("left", "right")), p)
    if branch in ("left", "right"):
        a = _branch_maps(x, p, (branch,))
        return _fuse(concat([a, a], axis=2), p)
    raise ValueError(f"unknown pma branch '{branch}'")
