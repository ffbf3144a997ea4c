"""Spatial and channel relational reasoning on data-dependent graphs.

An H x W x C feature map is reshaped into a vertex-feature matrix M: H*W x C
for spatial reasoning (pixels are the vertexes), its transpose for channel
reasoning. A learned non-negative adjacency is built from projected rows of
M, and the features are propagated through the symmetric normalized
Laplacian followed by a trainable square weight matrix: relu(L M Theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .init import as_rng, constant_init, xavier_uniform
from .tensor import (
    NumericalError,
    Tensor,
    clip,
    global_vertex_avg,
    power,
    relu,
    reshape,
    softmax,
    take_rows,
    tensor_sum,
    transpose,
)

__all__ = [
    "ReasoningParams",
    "NonLocalParams",
    "canonical_vertex_order",
    "adjacency",
    "normalized_laplacian",
    "graph_reason",
    "srr",
    "crr",
    "non_local_block",
    "init_reasoning_params",
    "init_nonlocal_params",
]

DEGREE_EPS = 1e-6


@dataclass
class ReasoningParams:
    """1x1 projection, diagonal-metric conv and the square mixing matrix.

    The i- and j-sides of the similarity share the projection, which makes
    the adjacency symmetric and the symmetric normalization well-posed.
    """

    proj_w: Tensor
    proj_b: Tensor
    lambda_w: Tensor
    lambda_b: Tensor
    theta: Tensor

    def named_parameters(self, prefix: str = ""):
        for name in ("proj_w", "proj_b", "lambda_w", "lambda_b", "theta"):
            yield prefix + name, getattr(self, name)


def init_reasoning_params(feature_dim: int, seed, dtype=np.float32) -> ReasoningParams:
    rng = as_rng(seed)
    a2 = int(feature_dim)
    return ReasoningParams(
        proj_w=xavier_uniform((a2, a2), rng, dtype=dtype),
        proj_b=constant_init((a2,), 0.0, dtype=dtype),
        lambda_w=xavier_uniform((a2, a2), rng, dtype=dtype),
        lambda_b=constant_init((a2,), 0.0, dtype=dtype),
        theta=xavier_uniform((a2, a2), rng, dtype=dtype),
    )


def canonical_vertex_order(matrix: np.ndarray) -> np.ndarray:
    """A vertex ordering that depends only on vertex content, not layout.

    Sorting vertexes into this order before reasoning makes srr/crr
    bit-stable under any relabeling of the input vertexes (pixel or channel
    permutations); vertexes with identical feature rows are interchangeable.
    """
    sums = matrix.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    if np.unique(sums).size == sums.size:
        return order
    cols = tuple(matrix[:, j] for j in reversed(range(matrix.shape[1])))
    return np.lexsort(cols)


def adjacency(m: Tensor, p: ReasoningParams) -> Tensor:
    """Non-negative pairwise similarity of the rows (vertexes) of m, with a
    learned diagonal metric."""
    a2 = m.shape[1]
    if p.proj_w.shape != (a2, a2) or p.theta.shape != (a2, a2):
        raise ValueError(
            f"reasoning params sized for feature dim {p.proj_w.shape[0]}, graph has {a2}"
        )
    proj = relu(m @ p.proj_w + p.proj_b)
    lam = relu(global_vertex_avg(m) @ p.lambda_w + p.lambda_b)  # 1 x a2 diagonal
    adj = (proj * lam) @ transpose(proj)
    # exact symmetry: elementwise (M + M^T) / 2 commutes with rounding
    adj = (adj + transpose(adj)) * 0.5
    if not np.isfinite(adj.data).all():
        raise NumericalError("adjacency produced non-finite entries")
    return adj


def normalized_laplacian(adj: Tensor, eps: float = DEGREE_EPS) -> Tensor:
    """I - D^{-1/2} A D^{-1/2} with degrees clamped away from zero."""
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if (adj.data < 0).any():
        raise ValueError("adjacency entries must be non-negative")
    n = adj.shape[0]
    deg = clip(tensor_sum(adj, axis=1), lo=eps)
    inv_sqrt = power(deg, -0.5)
    scale = reshape(inv_sqrt, (n, 1)) * reshape(inv_sqrt, (1, n))
    eye = Tensor(np.eye(n, dtype=adj.dtype))
    return eye + adj * scale * -1.0


def graph_reason(m: Tensor, p: ReasoningParams) -> Tensor:
    """relu(L M Theta) for a vertex-feature matrix M (one row per vertex).

    The pipeline runs in canonical vertex order (see canonical_vertex_order)
    and the rows are put back afterwards, so results do not depend on how the
    caller happened to label the vertexes.
    """
    order = canonical_vertex_order(m.data)
    mc = take_rows(m, order)
    lap = normalized_laplacian(adjacency(mc, p))
    out = relu(lap @ mc @ p.theta)
    return take_rows(out, np.argsort(order))


def _hwc(x: Tensor, name: str) -> tuple[int, int, int]:
    if x.ndim != 3:
        raise ValueError(f"{name} needs a rank-3 HxWxC input, got shape {x.shape}")
    return x.shape


def srr(x: Tensor, p: ReasoningParams) -> Tensor:
    """Spatial relational reasoning: the H*W pixels are the vertexes, vertex
    k being pixel (k // W, k % W) with its C channel values as features."""
    h, w, c = _hwc(x, "srr")
    return reshape(graph_reason(reshape(x, (h * w, c)), p), (h, w, c))


def crr(x: Tensor, p: ReasoningParams) -> Tensor:
    """Channel relational reasoning: the C channels are the vertexes, each
    described by its H*W pixel values."""
    h, w, c = _hwc(x, "crr")
    out = graph_reason(transpose(reshape(x, (h * w, c))), p)
    return reshape(transpose(out), (h, w, c))


# -- non-local block (ablation alternative to relational reasoning) ----------


@dataclass
class NonLocalParams:
    theta_w: Tensor
    theta_b: Tensor
    phi_w: Tensor
    phi_b: Tensor
    g_w: Tensor
    g_b: Tensor
    out_w: Tensor
    out_b: Tensor

    def named_parameters(self, prefix: str = ""):
        for name in ("theta_w", "theta_b", "phi_w", "phi_b", "g_w", "g_b", "out_w", "out_b"):
            yield prefix + name, getattr(self, name)


def init_nonlocal_params(channels: int, seed, dtype=np.float32) -> NonLocalParams:
    rng = as_rng(seed)
    c = int(channels)
    ci = max(c // 2, 1)
    return NonLocalParams(
        theta_w=xavier_uniform((c, ci), rng, dtype=dtype),
        theta_b=constant_init((ci,), 0.0, dtype=dtype),
        phi_w=xavier_uniform((c, ci), rng, dtype=dtype),
        phi_b=constant_init((ci,), 0.0, dtype=dtype),
        g_w=xavier_uniform((c, ci), rng, dtype=dtype),
        g_b=constant_init((ci,), 0.0, dtype=dtype),
        out_w=xavier_uniform((ci, c), rng, dtype=dtype),
        out_b=constant_init((c,), 0.0, dtype=dtype),
    )


def non_local_block(x: Tensor, p: NonLocalParams) -> Tensor:
    """Embedded-Gaussian non-local attention with a residual connection."""
    h, w, c = _hwc(x, "non_local_block")
    if p.theta_w.shape[0] != c:
        raise ValueError(
            f"non-local params sized for {p.theta_w.shape[0]} channels, input has {c}"
        )
    m = reshape(x, (h * w, c))
    q = m @ p.theta_w + p.theta_b
    k = m @ p.phi_w + p.phi_b
    v = m @ p.g_w + p.g_b
    attn = softmax(q @ transpose(k), axis=-1)
    z = (attn @ v) @ p.out_w + p.out_b
    return x + reshape(z, (h, w, c))
