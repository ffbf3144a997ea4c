"""Parallel multi-scale attention: two complementary 2-D attention branches.

The left branch computes multi-scale attention maps directly from the
two-channel pooling descriptor of the input; the right branch first extracts
multi-scale features and then applies spatial attention to each. Both
branches average their three scales and a 1x1 fusion conv combines them.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, channel_pool, concat, conv2d, relu, reshape, sigmoid, tensor_sum

__all__ = [
    "SCALES",
    "conv_shapes",
    "pma_shapes",
    "descriptor",
    "left_branch",
    "right_branch",
    "fuse_maps",
    "pma",
]

SCALES = (3, 5, 7)


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
        shapes |= conv_shapes(7, 2, 1, f"att.k{k}.")
    return shapes | conv_shapes(1, 2, 1, "fuse.")


# CBAM's two-channel pooling descriptor: per-pixel channel average and max.
descriptor = channel_pool


def _zero_pad(w: Tensor, axis: int, before: int, after: int) -> Tensor:
    """w between zero blocks of `before` and `after` slices along one axis."""

    def zeros(n):
        shape = list(w.shape)
        shape[axis] = n
        return Tensor(np.zeros(shape, dtype=w.dtype))

    return concat([zeros(before), w, zeros(after)], axis=axis)


def left_branch(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Multi-scale attention on the single-scale descriptor, H x W map.

    The per-scale 2 -> 1 kernels, zero-embedded in the largest one, run as
    one 2 -> 3 conv, built from the parameters in every forward pass.
    """
    ws = [p[f"left.k{k}.w"] for k in SCALES]
    size = max(w.shape[0] for w in ws)
    pads = [(size - w.shape[0]) // 2 for w in ws]
    w = concat([_zero_pad(_zero_pad(w, 0, q, q), 1, q, q) for w, q in zip(ws, pads)], axis=3)
    b = concat([p[f"left.k{k}.b"] for k in SCALES], axis=0)
    return tensor_sum(sigmoid(conv2d(descriptor(x), w, b)), axis=2) * (1.0 / 3.0)


def right_branch(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Spatial attention on multi-scale features, averaged into one H x W map.

    The per-scale attention convs run as one 6 -> 3 conv over the three
    stacked descriptors, with a block-diagonal kernel: output j reads only
    descriptor j.
    """
    d = concat(
        [descriptor(relu(conv2d(x, p[f"right.k{k}.w"], p[f"right.k{k}.b"]))) for k in SCALES], axis=2
    )
    n = len(SCALES)
    w = concat([_zero_pad(p[f"att.k{k}.w"], 2, 2 * j, 2 * (n - 1 - j)) for j, k in enumerate(SCALES)], axis=3)
    b = concat([p[f"att.k{k}.b"] for k in SCALES], axis=0)
    return tensor_sum(sigmoid(conv2d(d, w, b)), axis=2) * (1.0 / 3.0)


def fuse_maps(a_l: Tensor, a_r: Tensor, p: dict[str, Tensor]) -> Tensor:
    """sigmoid(conv1x1(concat(A_l, A_r))), the final H x W attention map."""
    if a_l.shape != a_r.shape:
        raise ValueError(f"attention maps must share a shape, got {a_l.shape} and {a_r.shape}")
    h, w = a_l.shape
    stacked = concat([reshape(a_l, (h, w, 1)), reshape(a_r, (h, w, 1))], axis=2)
    return reshape(sigmoid(conv2d(stacked, p["fuse.w"], p["fuse.b"])), (h, w))


def pma(x: Tensor, p: dict[str, Tensor], branch: str = "both") -> Tensor:
    """The full module; 'left'/'right' feed a duplicated single branch to fuse."""
    if branch == "both":
        return fuse_maps(left_branch(x, p), right_branch(x, p), p)
    if branch == "left":
        a = left_branch(x, p)
        return fuse_maps(a, a, p)
    if branch == "right":
        a = right_branch(x, p)
        return fuse_maps(a, a, p)
    raise ValueError(f"unknown pma branch '{branch}'")
