"""Spatial and channel relational reasoning on data-dependent graphs.

An H x W x C feature map is reshaped into a vertex-feature matrix M: H*W x C
for spatial reasoning (pixels are the vertexes), its transpose for channel
reasoning. A learned non-negative adjacency is built from projected rows of
M, and the features are propagated through the symmetric normalized
Laplacian followed by a trainable square weight matrix: relu(L M Theta).

graph_reason records the whole pipeline as one tape op. Its forward pass is
reasoning_forward, which returns the adjacency, the Laplacian and every other
array the backward pass reads; the self-check and the demo inspect the same
function, so they see the bytes the network computes. The backward pass is
written out in closed form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensor import NumericalError, Tensor, _from_op, reshape, softmax, transpose

__all__ = [
    "reasoning_shapes",
    "nonlocal_shapes",
    "canonical_vertex_order",
    "ReasoningForward",
    "reasoning_forward",
    "graph_reason",
    "srr",
    "crr",
    "non_local_block",
]

DEGREE_EPS = 1e-6


def reasoning_shapes(feature_dim: int) -> dict[str, tuple[int, ...]]:
    """The reasoning parameter table in draw order: the 1x1 projection
    proj_w/proj_b, the diagonal-metric conv lambda_w/lambda_b and the square
    mixing matrix theta, all sized by the vertex feature dimension.

    The i- and j-sides of the similarity share the projection, which makes
    the adjacency symmetric and the symmetric normalization well-posed.
    """
    a2 = int(feature_dim)
    return {
        "proj_w": (a2, a2),
        "proj_b": (a2,),
        "lambda_w": (a2, a2),
        "lambda_b": (a2,),
        "theta": (a2, a2),
    }


def canonical_vertex_order(matrix: np.ndarray) -> np.ndarray:
    """A vertex ordering that depends only on vertex content, not layout.

    Sorting vertexes into this order before reasoning makes srr/crr
    bit-stable under any relabeling of the input vertexes (pixel or channel
    permutations); vertexes with identical feature rows are interchangeable.
    """
    sums = matrix.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    s = sums[order]
    if (s[1:] > s[:-1]).all():  # distinct sums; a NaN or a tie takes the lexsort
        return order
    cols = tuple(matrix[:, j] for j in reversed(range(matrix.shape[1])))
    return np.lexsort(cols)


class ReasoningForward(NamedTuple):
    """The forward pass of graph_reason on vertex rows mc, with every array
    its closed-form backward reads: P = relu(mc Wp + bp), mu the vertex
    mean, lambda = relu(mu Wl + bl), the symmetric adjacency
    A, the degrees A 1 and their clip D, s = D^(-1/2), S = s s^T, the
    Laplacian L = I - A*S, H = L mc and O = H Theta."""

    mc: np.ndarray
    proj: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    adj: np.ndarray
    deg: np.ndarray
    dc: np.ndarray
    s: np.ndarray
    scale: np.ndarray
    lap: np.ndarray
    h: np.ndarray
    o: np.ndarray


def reasoning_forward(mc: np.ndarray, p: dict[str, Tensor]) -> ReasoningForward:
    """Propagate the vertex rows mc (one row per vertex, in the order given)
    through the learned adjacency and its normalized Laplacian, up to
    L mc Theta before the relu. graph_reason runs exactly this on the
    canonically ordered rows."""
    n = mc.shape[0]
    proj = np.maximum(mc @ p["proj_w"].data + p["proj_b"].data, 0)
    mu = mc.mean(axis=0, keepdims=True)
    lam = np.maximum(mu @ p["lambda_w"].data + p["lambda_b"].data, 0)
    adj = (proj * lam) @ proj.T
    # exact symmetry: elementwise (M + M^T) / 2 commutes with rounding
    adj = (adj + adj.T) * 0.5
    if not np.isfinite(adj).all():
        raise NumericalError("adjacency produced non-finite entries")
    deg = adj.sum(axis=1)
    dc = np.clip(deg, DEGREE_EPS, None)
    s = np.power(dc, -0.5)
    scale = s.reshape(n, 1) * s.reshape(1, n)
    lap = np.eye(n, dtype=adj.dtype) + adj * scale * -1.0
    h = lap @ mc
    o = h @ p["theta"].data
    return ReasoningForward(mc, proj, mu, lam, adj, deg, dc, s, scale, lap, h, o)


def graph_reason(m: Tensor, p: dict[str, Tensor]) -> Tensor:
    """relu(L M Theta) for a vertex-feature matrix M (one row per vertex).

    The pipeline runs in canonical vertex order (see canonical_vertex_order)
    and the rows are put back afterwards, so results do not depend on how the
    caller happened to label the vertexes.

    One tape op: the forward pass is reasoning_forward, and the backward
    pass runs the chain rule through its arrays in closed form.
    """
    n, a2 = m.shape
    wp, bp, wl, bl, theta = (p[k] for k in ("proj_w", "proj_b", "lambda_w", "lambda_b", "theta"))
    if wp.shape != (a2, a2) or theta.shape != (a2, a2):
        raise ValueError(f"reasoning params sized for feature dim {wp.shape[0]}, graph has {a2}")
    order = canonical_vertex_order(m.data)
    inv = np.argsort(order)
    f = reasoning_forward(m.data[order], p)

    def backward(g):
        go = g[order] * (f.o > 0)
        if theta.requires_grad:
            theta._accumulate(f.h.T @ go)
        gh = go @ theta.data.T
        gl = gh @ f.mc.T
        # L = I - A*S with S = s s^T; the degree path adds dL/ddeg_i to row i
        gs = gl * f.adj * -1.0
        gdc = (gs @ f.s + gs.T @ f.s) * -0.5 * np.power(f.dc, -1.5)
        ga = gl * f.scale * -1.0 + (gdc * (f.deg >= DEGREE_EPS)).reshape(n, 1)
        ga0 = (ga + ga.T) * 0.5
        # A0 = Q P^T with a symmetric gradient dA0: dQ = dA0 P, and
        # dP = dA0 Q + dQ*lambda = 2 dQ*lambda, since Q = P*lambda
        gq = ga0 @ f.proj
        # relu's gradient masks: relu(x) > 0 exactly where x > 0, NaN included
        gy = (gq * f.proj).sum(axis=0, keepdims=True) * (f.lam > 0)
        gz = gq * f.lam * 2.0 * (f.proj > 0)
        if wl.requires_grad:
            wl._accumulate(f.mu.T @ gy)
        if bl.requires_grad:
            bl._accumulate(gy.reshape(a2))
        if wp.requires_grad:
            wp._accumulate(f.mc.T @ gz)
        if bp.requires_grad:
            bp._accumulate(gz.sum(axis=0))
        if m.requires_grad:
            gm = f.lap.T @ gh + gz @ wp.data.T + (gy @ wl.data.T) / n
            m._accumulate(gm[inv])

    return _from_op(np.maximum(f.o, 0)[inv], (m, wp, bp, wl, bl, theta), backward)


def _hwc(x: Tensor, name: str) -> tuple[int, int, int]:
    if x.ndim != 3:
        raise ValueError(f"{name} needs a rank-3 HxWxC input, got shape {x.shape}")
    return x.shape


def srr(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Spatial relational reasoning: the H*W pixels are the vertexes, vertex
    k being pixel (k // W, k % W) with its C channel values as features."""
    h, w, c = _hwc(x, "srr")
    return reshape(graph_reason(reshape(x, (h * w, c)), p), (h, w, c))


def crr(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Channel relational reasoning: the C channels are the vertexes, each
    described by its H*W pixel values."""
    h, w, c = _hwc(x, "crr")
    out = graph_reason(transpose(reshape(x, (h * w, c))), p)
    return reshape(transpose(out), (h, w, c))


# -- non-local block (ablation alternative to relational reasoning) ----------


def nonlocal_shapes(channels: int) -> dict[str, tuple[int, ...]]:
    """The non-local parameter table in draw order: the query, key and value
    projections theta, phi and g from C to C/2 channels, and the output
    projection back to C, each a weight _w and a bias _b."""
    c = int(channels)
    ci = max(c // 2, 1)
    shapes: dict[str, tuple[int, ...]] = {}
    for name in ("theta", "phi", "g"):
        shapes |= {f"{name}_w": (c, ci), f"{name}_b": (ci,)}
    return shapes | {"out_w": (ci, c), "out_b": (c,)}


def non_local_block(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Embedded-Gaussian non-local attention with a residual connection."""
    h, w, c = _hwc(x, "non_local_block")
    if p["theta_w"].shape[0] != c:
        raise ValueError(
            f"non-local params sized for {p['theta_w'].shape[0]} channels, input has {c}"
        )
    m = reshape(x, (h * w, c))
    q = m @ p["theta_w"] + p["theta_b"]
    k = m @ p["phi_w"] + p["phi_b"]
    v = m @ p["g_w"] + p["g_b"]
    attn = softmax(q @ transpose(k))
    z = (attn @ v) @ p["out_w"] + p["out_b"]
    return x + reshape(z, (h, w, c))
