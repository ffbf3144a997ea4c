"""Walk through the relational-reasoning pipeline on a small feature map:
the vertex-feature matrix, the learned non-negative adjacency, the symmetric
normalized Laplacian and its spectrum, and the equivariance that makes the
whole block independent of pixel labeling.

Run:  python demos/02_graph_reasoning.py
"""

import numpy as np

from rrnet.graph import (
    canonical_vertex_order,
    crr,
    non_local_block,
    nonlocal_shapes,
    reasoning_forward,
    reasoning_shapes,
    srr,
)
from rrnet.init import init_params
from rrnet.tensor import Tensor, reshape

rng = np.random.default_rng(7)

x = Tensor(rng.standard_normal((4, 4, 6)).astype(np.float32))
params = init_params(reasoning_shapes(6), rng, np.float32)  # {"proj_w": Tensor, ...}

# -- spatial graph: 16 pixel vertexes, 6 features each ------------------------------

m = reshape(x, (16, 6))  # vertex k is pixel (k // 4, k % 4)
print(f"spatial graph: {m.shape[0]} vertexes x {m.shape[1]} features")

# the forward pass srr runs, on the vertexes in the canonical order it uses
f = reasoning_forward(m.data[canonical_vertex_order(m.data)], params)
print("adjacency symmetric:", np.array_equal(f.adj, f.adj.T))
print("adjacency non-negative:", bool((f.adj >= 0).all()))

eigs = np.linalg.eigvalsh(f.lap.astype(np.float64))
print(f"Laplacian spectrum in [0, 2]: min {eigs.min():.3e}, max {eigs.max():.6f}")

# -- the reasoning step and its shape contract ---------------------------------------

out = srr(x, params)
print("srr output shape:", out.shape, "(preserved), non-negative:", bool((out.data >= 0).all()))

# relabeling the pixels relabels the output identically, bit for bit
perm = rng.permutation(16)
x_perm = Tensor(x.data.reshape(16, 6)[perm].reshape(4, 4, 6))
out_perm = srr(x_perm, params)
same = np.array_equal(out.data.reshape(16, 6)[perm], out_perm.data.reshape(16, 6))
print("pixel-permutation equivariance (exact):", same)

# -- channel graph: 6 vertexes described by their 16-pixel maps ----------------------

cparams = init_params(reasoning_shapes(16), rng, np.float32)
out_c = crr(x, cparams)
print("crr output shape:", out_c.shape)

# -- the non-local alternative used by the ablation ----------------------------------

nl = init_params(nonlocal_shapes(6), rng, np.float32)
out_nl = non_local_block(x, nl)
print("non-local output shape:", out_nl.shape)
nl["g_w"].data[:] = 0.0
print(
    "zero value-projection reduces non-local to the identity:",
    np.array_equal(non_local_block(x, nl).data, x.data),
)
