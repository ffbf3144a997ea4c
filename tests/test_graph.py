"""Graph reasoning: adjacency/Laplacian algebra, SRR/CRR, non-local block."""

import numpy as np
import pytest

from rrnet.graph import (
    ReasoningParams,
    adjacency,
    canonical_vertex_order,
    crr,
    graph_reason,
    init_nonlocal_params,
    init_reasoning_params,
    non_local_block,
    normalized_laplacian,
    srr,
)
from rrnet.tensor import Tensor, relu, reshape, take_rows, transpose


def identity_params(a2, lam_bias=1.0, dtype=np.float64):
    """Projection = identity, lambda path forced to a constant diagonal."""
    eye = np.eye(a2, dtype=dtype)
    return ReasoningParams(
        proj_w=Tensor(eye.copy(), requires_grad=True),
        proj_b=Tensor(np.zeros(a2, dtype=dtype), requires_grad=True),
        lambda_w=Tensor(np.zeros((a2, a2), dtype=dtype), requires_grad=True),
        lambda_b=Tensor(np.full(a2, lam_bias, dtype=dtype), requires_grad=True),
        theta=Tensor(eye.copy(), requires_grad=True),
    )


class TestAdjacency:
    def test_gram_of_identity_rows(self):
        adj = adjacency(Tensor(np.eye(2), dtype=np.float64), identity_params(2))
        assert np.allclose(adj.data, np.eye(2), atol=1e-12)

    def test_zero_projected_row_zeroes_row_and_column(self, rng):
        m = rng.uniform(0.1, 1.0, size=(4, 3))
        m[2] = -1.0  # relu of the identity projection kills this vertex
        adj = adjacency(Tensor(m, dtype=np.float64), identity_params(3)).data
        assert np.array_equal(adj[2], np.zeros(4))
        assert np.array_equal(adj[:, 2], np.zeros(4))

    def test_matches_double_loop_oracle(self, rng):
        m = rng.standard_normal((5, 4))
        p = init_reasoning_params(4, rng, dtype=np.float64)
        got = adjacency(Tensor(m, dtype=np.float64), p).data
        # independent scalar pipeline: x_i^T Lambda x_j over projected rows
        proj = np.maximum(m @ p.proj_w.data + p.proj_b.data, 0.0)
        lam = np.maximum(m.mean(axis=0) @ p.lambda_w.data + p.lambda_b.data, 0.0)
        expect = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                expect[i, j] = sum(proj[i, k] * lam[k] * proj[j, k] for k in range(4))
        assert np.abs(got - expect).max() < 1e-10

    def test_symmetry_exact_on_random_inputs(self, rng):
        for _ in range(10):
            m = rng.standard_normal((8, 6)).astype(np.float32)
            p = init_reasoning_params(6, rng)
            adj = adjacency(Tensor(m), p).data
            assert np.array_equal(adj, adj.T)
            assert (adj >= 0).all()

    def test_dimension_mismatch_rejected(self, rng):
        p = init_reasoning_params(3, rng)
        with pytest.raises(ValueError, match="feature dim"):
            adjacency(Tensor(np.zeros((5, 4))), p)


class TestNormalizedLaplacian:
    def test_two_vertex_exchange(self):
        lap = normalized_laplacian(Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]), dtype=np.float64))
        assert np.allclose(lap.data, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_uniform_two_vertex(self):
        lap = normalized_laplacian(Tensor(np.ones((2, 2)), dtype=np.float64))
        assert np.allclose(lap.data, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_eigenvalues_in_zero_two_band(self, rng):
        for _ in range(100):
            raw = rng.uniform(size=(6, 6))
            adj = (raw + raw.T) / 2
            eigs = np.linalg.eigvalsh(normalized_laplacian(Tensor(adj, dtype=np.float64)).data)
            assert eigs.min() >= -1e-8
            assert eigs.max() <= 2.0 + 1e-8

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalized_laplacian(Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]])))

    def test_degree_clamp_handles_isolated_vertex(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        lap = normalized_laplacian(Tensor(adj, dtype=np.float64)).data
        assert np.isfinite(lap).all()
        assert lap[2, 2] == 1.0


class TestGraphReason:
    def test_constant_signal_annihilated_by_uniform_adjacency(self):
        # identical rows give a uniform adjacency, so L M = 0 and relu keeps it zero
        m = np.tile([1.5, -0.5, 2.0], (4, 1))
        out = graph_reason(Tensor(m, dtype=np.float64), identity_params(3))
        assert out.shape == (4, 3)
        assert np.abs(out.data).max() < 1e-12

    def test_matches_dense_matmul_oracle(self, rng):
        x = rng.standard_normal((2, 2, 3))
        p = init_reasoning_params(3, rng, dtype=np.float64)
        got = graph_reason(Tensor(x.reshape(4, 3), dtype=np.float64), p).data
        # from-scratch oracle in canonical order, plain numpy throughout
        m = x.reshape(4, 3)
        order = canonical_vertex_order(m)
        mc = m[order]
        proj = np.maximum(mc @ p.proj_w.data + p.proj_b.data, 0.0)
        lam = np.maximum(mc.mean(axis=0) @ p.lambda_w.data + p.lambda_b.data, 0.0)
        adj = (proj * lam) @ proj.T
        adj = (adj + adj.T) / 2
        deg = np.maximum(adj.sum(axis=1), 1e-6)
        scale = np.outer(deg**-0.5, deg**-0.5)
        lap = np.eye(4) - adj * scale
        core = np.maximum(lap @ mc @ p.theta.data, 0.0)
        expect = core[np.argsort(order)]
        assert np.abs(got - expect).max() < 1e-10


class TestSrrCrr:
    def test_srr_pixel_permutation_equivariance_exact(self, rng):
        x = rng.standard_normal((4, 4, 8)).astype(np.float32)
        p = init_reasoning_params(8, rng)
        perm = rng.permutation(16)
        x_perm = x.reshape(16, 8)[perm].reshape(4, 4, 8)
        out = srr(Tensor(x), p).data.reshape(16, 8)
        out_perm = srr(Tensor(x_perm), p).data.reshape(16, 8)
        assert np.array_equal(out[perm], out_perm)

    def test_crr_channel_permutation_equivariance_exact(self, rng):
        x = rng.standard_normal((4, 4, 6)).astype(np.float32)
        p = init_reasoning_params(16, rng)
        perm = rng.permutation(6)
        out = crr(Tensor(x), p).data
        out_perm = crr(Tensor(x[:, :, perm]), p).data
        assert np.array_equal(out[:, :, perm], out_perm)

    def test_single_vertex_degenerates_to_zero(self, rng):
        # one spatial vertex: L = 1 - 1 = 0
        x = rng.uniform(1.0, 2.0, size=(1, 1, 5))
        p = init_reasoning_params(5, rng, dtype=np.float64)
        out = srr(Tensor(x, dtype=np.float64), p)
        assert np.abs(out.data).max() == 0.0

    def test_single_channel_degenerates_to_zero(self, rng):
        x = rng.uniform(1.0, 2.0, size=(2, 2, 1))
        p = init_reasoning_params(4, rng, dtype=np.float64)
        out = crr(Tensor(x, dtype=np.float64), p)
        assert np.abs(out.data).max() == 0.0

    def test_srr_equals_unfused_pipeline(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float64)
        p = init_reasoning_params(8, rng, dtype=np.float64)
        got = srr(x, p).data
        m = reshape(x, (16, 8))
        order = canonical_vertex_order(m.data)
        mc = take_rows(m, order)
        lap = normalized_laplacian(adjacency(mc, p))
        core = relu(lap @ mc @ p.theta)
        stepwise = reshape(take_rows(core, np.argsort(order)), (4, 4, 8)).data
        assert np.array_equal(got, stepwise)

    def test_crr_matches_stepwise_oracle(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 3)), dtype=np.float64)
        p = init_reasoning_params(16, rng, dtype=np.float64)
        got = crr(x, p).data
        m = transpose(reshape(x, (16, 3)))  # one row per channel
        got2 = reshape(transpose(graph_reason(m, p)), (4, 4, 3)).data
        assert np.array_equal(got, got2)

    def test_shapes_preserved(self, rng):
        x = Tensor(rng.standard_normal((4, 8, 6)).astype(np.float32))
        ps = init_reasoning_params(6, rng)
        pc = init_reasoning_params(32, rng)
        assert srr(x, ps).shape == x.shape
        assert crr(x, pc).shape == x.shape

    def test_rank3_input_required(self, rng):
        for fn, p in ((srr, init_reasoning_params(3, rng)), (crr, init_reasoning_params(9, rng))):
            with pytest.raises(ValueError, match="rank-3"):
                fn(Tensor(np.zeros((9, 3))), p)

    def test_output_non_negative(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32))
        p = init_reasoning_params(8, rng)
        assert (srr(x, p).data >= 0).all()


class TestNonLocal:
    def test_attention_rows_sum_to_one(self, rng):
        # re-derive the softmax attention from the same projections
        x = rng.standard_normal((3, 3, 4))
        p = init_nonlocal_params(4, rng, dtype=np.float64)
        m = x.reshape(9, 4)
        q = m @ p.theta_w.data + p.theta_b.data
        k = m @ p.phi_w.data + p.phi_b.data
        scores = q @ k.T
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-12

    def test_zero_g_projection_gives_pure_residual(self, rng):
        x = rng.standard_normal((3, 3, 4)).astype(np.float32)
        p = init_nonlocal_params(4, rng)
        p.g_w.data[:] = 0.0
        out = non_local_block(Tensor(x), p)
        assert np.array_equal(out.data, x)

    def test_matches_bruteforce_pairwise_oracle(self, rng):
        x = rng.standard_normal((2, 2, 2))
        p = init_nonlocal_params(2, rng, dtype=np.float64)
        got = non_local_block(Tensor(x, dtype=np.float64), p).data
        m = x.reshape(4, 2)
        q = m @ p.theta_w.data + p.theta_b.data
        k = m @ p.phi_w.data + p.phi_b.data
        v = m @ p.g_w.data + p.g_b.data
        out = np.zeros_like(m)
        for i in range(4):
            scores = np.array([q[i] @ k[j] for j in range(4)])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            y = sum(w[j] * v[j] for j in range(4))
            out[i] = y @ p.out_w.data + p.out_b.data + m[i]
        assert np.abs(got - out.reshape(2, 2, 2)).max() < 1e-10

    def test_shape_validation(self, rng):
        p = init_nonlocal_params(4, rng)
        with pytest.raises(ValueError, match="channels"):
            non_local_block(Tensor(np.zeros((2, 2, 3))), p)
        with pytest.raises(ValueError, match="rank-3"):
            non_local_block(Tensor(np.zeros((2, 2))), p)

    def test_gradients_pass_fd_check(self, rng):
        from rrnet.checks import gradcheck
        from rrnet.tensor import tensor_sum

        x = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True, dtype=np.float64)
        p = init_nonlocal_params(4, rng, dtype=np.float64)
        leaves = [("x", x)] + list(p.named_parameters())
        res = gradcheck(lambda: tensor_sum(non_local_block(x, p) ** 2.0), leaves)
        assert res.ok, f"max rel err {res.max_rel_error:.3e} in {res.worst_param}"


class TestCanonicalOrder:
    def test_duplicate_rows_fall_back_to_lexicographic(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
        order = canonical_vertex_order(m)
        # sums tie everywhere; lexicographic puts the duplicate [1,2] rows first
        assert np.array_equal(np.sort(order[:2]), [0, 2])

    def test_gradients_flow_through_reasoning(self, rng):
        from rrnet.checks import gradcheck
        from rrnet.tensor import tensor_sum

        x = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True, dtype=np.float64)
        p = init_reasoning_params(4, rng, dtype=np.float64)
        leaves = [("x", x)] + list(p.named_parameters())
        res = gradcheck(lambda: tensor_sum(srr(x, p) ** 2.0), leaves)
        assert res.ok, f"max rel err {res.max_rel_error:.3e} in {res.worst_param}"
