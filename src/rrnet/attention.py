"""Parallel multi-scale attention: two complementary 2-D attention branches.

The left branch computes multi-scale attention maps directly from the
two-channel pooling descriptor of the input; the right branch first extracts
multi-scale features and then applies spatial attention to each. Both
branches average their three scales and a 1x1 fusion conv combines them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .init import as_rng, constant_init, xavier_uniform
from .tensor import Tensor, channel_pool, concat, conv2d, relu, reshape, sigmoid, tensor_sum

__all__ = [
    "SCALES",
    "ConvParams",
    "PmaParams",
    "descriptor",
    "left_branch",
    "right_branch",
    "fuse_maps",
    "pma",
    "init_pma_params",
]

SCALES = (3, 5, 7)


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor

    def named_parameters(self, prefix: str = ""):
        yield prefix + "w", self.w
        yield prefix + "b", self.b


@dataclass
class PmaParams:
    """Kernels for both branches, keyed by scale (kernel size).

    Scale dictionaries are always iterated in sorted key order, so the
    result is independent of construction order.
    """

    left: dict[int, ConvParams]
    right: dict[int, ConvParams]
    right_att: dict[int, ConvParams]
    fuse: ConvParams
    feature_activation: str = "relu"

    def named_parameters(self, prefix: str = ""):
        for k in sorted(self.left):
            yield from self.left[k].named_parameters(f"{prefix}left.k{k}.")
        for k in sorted(self.right):
            yield from self.right[k].named_parameters(f"{prefix}right.k{k}.")
        for k in sorted(self.right_att):
            yield from self.right_att[k].named_parameters(f"{prefix}att.k{k}.")
        yield from self.fuse.named_parameters(prefix + "fuse.")


def init_pma_params(
    channels: int,
    seed,
    dtype=np.float32,
    att_kernel: int = 7,
    feature_activation: str = "relu",
) -> PmaParams:
    rng = as_rng(seed)
    c = int(channels)

    def conv(k, cin, cout):
        return ConvParams(
            w=xavier_uniform((k, k, cin, cout), rng, dtype=dtype),
            b=constant_init((cout,), 0.0, dtype=dtype),
        )

    return PmaParams(
        left={k: conv(k, 2, 1) for k in SCALES},
        right={k: conv(k, c, c) for k in SCALES},
        right_att={k: conv(att_kernel, 2, 1) for k in SCALES},
        fuse=conv(1, 2, 1),
        feature_activation=feature_activation,
    )


# CBAM's two-channel pooling descriptor: per-pixel channel average and max.
descriptor = channel_pool


def _zero_pad(w: Tensor, axis: int, before: int, after: int) -> Tensor:
    """w between zero blocks of `before` and `after` slices along one axis."""

    def zeros(n):
        shape = list(w.shape)
        shape[axis] = n
        return Tensor(np.zeros(shape, dtype=w.dtype))

    return concat([zeros(before), w, zeros(after)], axis=axis)


def left_branch(x: Tensor, p: PmaParams) -> Tensor:
    """Multi-scale attention on the single-scale descriptor, H x W map.

    The per-scale 2 -> 1 kernels, zero-embedded in the largest one, run as
    one 2 -> 3 conv, built from the parameters in every forward pass.
    """
    convs = [p.left[k] for k in sorted(p.left)]
    size = max(c.w.shape[0] for c in convs)
    pads = [(size - c.w.shape[0]) // 2 for c in convs]
    w = concat([_zero_pad(_zero_pad(c.w, 0, q, q), 1, q, q) for c, q in zip(convs, pads)], axis=3)
    b = concat([c.b for c in convs], axis=0)
    return tensor_sum(sigmoid(conv2d(descriptor(x), w, b)), axis=2) * (1.0 / 3.0)


def right_branch(x: Tensor, p: PmaParams) -> Tensor:
    """Spatial attention on multi-scale features, averaged into one H x W map.

    The per-scale attention convs run as one 6 -> 3 conv over the three
    stacked descriptors, with a block-diagonal kernel: output j reads only
    descriptor j.
    """
    if p.feature_activation == "relu":
        act = relu
    elif p.feature_activation == "sigmoid":
        act = sigmoid
    else:
        raise ValueError(f"unknown feature activation '{p.feature_activation}'")
    scales = sorted(p.right)
    d = concat([descriptor(act(conv2d(x, p.right[k].w, p.right[k].b))) for k in scales], axis=2)
    att = [p.right_att[k] for k in scales]
    w = concat([_zero_pad(c.w, 2, 2 * j, 2 * (len(att) - 1 - j)) for j, c in enumerate(att)], axis=3)
    b = concat([c.b for c in att], axis=0)
    return tensor_sum(sigmoid(conv2d(d, w, b)), axis=2) * (1.0 / 3.0)


def fuse_maps(a_l: Tensor, a_r: Tensor, p: PmaParams) -> Tensor:
    """sigmoid(conv1x1(concat(A_l, A_r))), the final H x W attention map."""
    if a_l.shape != a_r.shape:
        raise ValueError(f"attention maps must share a shape, got {a_l.shape} and {a_r.shape}")
    h, w = a_l.shape
    stacked = concat([reshape(a_l, (h, w, 1)), reshape(a_r, (h, w, 1))], axis=2)
    return reshape(sigmoid(conv2d(stacked, p.fuse.w, p.fuse.b)), (h, w))


def pma(x: Tensor, p: PmaParams, branch: str = "both") -> Tensor:
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
