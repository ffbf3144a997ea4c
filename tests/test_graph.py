"""Graph reasoning: adjacency/Laplacian algebra, SRR/CRR, non-local block."""

import numpy as np
import pytest

from rrnet.graph import (
    DEGREE_EPS,
    canonical_vertex_order,
    crr,
    graph_reason,
    non_local_block,
    nonlocal_shapes,
    reasoning_forward,
    reasoning_shapes,
    srr,
)
from rrnet.init import init_params
from rrnet.tensor import (
    NumericalError,
    Tensor,
    _from_op,
    clip,
    power,
    relu,
    reshape,
    take_rows,
    tensor_sum,
    transpose,
)


def reasoning_params(feature_dim, rng, dtype=np.float32):
    return init_params(reasoning_shapes(feature_dim), rng, dtype)


def nonlocal_params(channels, rng, dtype=np.float32):
    return init_params(nonlocal_shapes(channels), rng, dtype)


def identity_params(a2, lam_bias=1.0, dtype=np.float64):
    """Projection = identity, lambda path forced to a constant diagonal."""
    eye = np.eye(a2, dtype=dtype)
    return {
        "proj_w": Tensor(eye.copy(), requires_grad=True),
        "proj_b": Tensor(np.zeros(a2, dtype=dtype), requires_grad=True),
        "lambda_w": Tensor(np.zeros((a2, a2), dtype=dtype), requires_grad=True),
        "lambda_b": Tensor(np.full(a2, lam_bias, dtype=dtype), requires_grad=True),
        "theta": Tensor(eye.copy(), requires_grad=True),
    }


# -- the Tensor-op oracle: graph_reason's forward as a composition of tape ops,
# in the same order as reasoning_forward, so its bytes must equal the fused
# op's and its gradients come from the ops' own backward passes


def vertex_mean(a):
    """The mean over rows, 1 x a2, with mc.mean(axis=0)'s bytes (a tensor_sum
    times 1/n rounds differently)."""
    n = a.shape[0]
    return _from_op(
        a.data.mean(axis=0, keepdims=True),
        (a,),
        lambda g: a._accumulate(np.broadcast_to(g / n, a.shape)),
    )


def adjacency(m, p):
    """Non-negative similarity of the rows of m under a learned diagonal metric."""
    proj = relu(m @ p["proj_w"] + p["proj_b"])
    lam = relu(vertex_mean(m) @ p["lambda_w"] + p["lambda_b"])  # 1 x a2 diagonal
    adj = (proj * lam) @ transpose(proj)
    return (adj + transpose(adj)) * 0.5


def normalized_laplacian(adj):
    """I - D^{-1/2} A D^{-1/2} with degrees clamped away from zero."""
    n = adj.shape[0]
    deg = clip(tensor_sum(adj, axis=1), lo=DEGREE_EPS)
    inv_sqrt = power(deg, -0.5)
    scale = reshape(inv_sqrt, (n, 1)) * reshape(inv_sqrt, (1, n))
    return Tensor(np.eye(n, dtype=adj.dtype)) + adj * scale * -1.0


def composed_graph_reason(m, p):
    """graph_reason as a composition of Tensor ops: the reference for the fused op."""
    order = canonical_vertex_order(m.data)
    mc = take_rows(m, order)
    lap = normalized_laplacian(adjacency(mc, p))
    return take_rows(relu(lap @ mc @ p["theta"]), np.argsort(order))


class TestAdjacency:
    """The adjacency reasoning_forward computes, which graph_reason runs."""

    def test_gram_of_identity_rows(self):
        adj = reasoning_forward(np.eye(2), identity_params(2)).adj
        assert np.allclose(adj, np.eye(2), atol=1e-12)

    def test_zero_projected_row_zeroes_row_and_column(self, rng):
        m = rng.uniform(0.1, 1.0, size=(4, 3))
        m[2] = -1.0  # relu of the identity projection kills this vertex
        adj = reasoning_forward(m, identity_params(3)).adj
        assert np.array_equal(adj[2], np.zeros(4))
        assert np.array_equal(adj[:, 2], np.zeros(4))

    def test_matches_double_loop_oracle(self, rng):
        m = rng.standard_normal((5, 4))
        p = reasoning_params(4, rng, np.float64)
        got = reasoning_forward(m, p).adj
        # independent scalar pipeline: x_i^T Lambda x_j over projected rows
        proj = np.maximum(m @ p["proj_w"].data + p["proj_b"].data, 0.0)
        lam = np.maximum(m.mean(axis=0) @ p["lambda_w"].data + p["lambda_b"].data, 0.0)
        expect = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                expect[i, j] = sum(proj[i, k] * lam[k] * proj[j, k] for k in range(4))
        assert np.abs(got - expect).max() < 1e-10

    def test_symmetry_exact_on_random_inputs(self, rng):
        for _ in range(10):
            m = rng.standard_normal((8, 6)).astype(np.float32)
            adj = reasoning_forward(m, reasoning_params(6, rng)).adj
            assert adj.dtype == np.float32
            assert np.array_equal(adj, adj.T)
            assert (adj >= 0).all()

    def test_matches_tensor_op_oracle_bit_for_bit(self, rng):
        for dtype in (np.float32, np.float64):
            m = rng.standard_normal((9, 5)).astype(dtype)
            p = reasoning_params(5, rng, dtype)
            f = reasoning_forward(m, p)
            adj = adjacency(Tensor(m), p)
            assert np.array_equal(f.adj, adj.data)
            assert np.array_equal(f.lap, normalized_laplacian(adj).data)

    def test_dimension_mismatch_rejected(self, rng):
        p = reasoning_params(3, rng)
        with pytest.raises(ValueError, match="feature dim"):
            graph_reason(Tensor(np.zeros((5, 4))), p)
        with pytest.raises(ValueError, match="feature dim"):
            srr(Tensor(np.zeros((2, 2, 4))), p)


class TestNormalizedLaplacian:
    def test_two_vertex_exchange(self):
        # a graph without self-loops, which no Gram adjacency gives: it pins the oracle
        lap = normalized_laplacian(Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]), dtype=np.float64))
        assert np.allclose(lap.data, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_uniform_two_vertex(self):
        # two equal rows: every adjacency entry is 1
        f = reasoning_forward(np.array([[1.0, 0.0], [1.0, 0.0]]), identity_params(2))
        assert np.array_equal(f.adj, np.ones((2, 2)))
        assert np.allclose(f.lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_eigenvalues_in_zero_two_band(self, rng):
        for _ in range(100):
            m = rng.standard_normal((6, 4))
            lap = reasoning_forward(m, reasoning_params(4, rng, np.float64)).lap
            eigs = np.linalg.eigvalsh(lap)
            assert eigs.min() >= -1e-8
            assert eigs.max() <= 2.0 + 1e-8

    def test_degree_clamp_handles_isolated_vertex(self, rng):
        m = rng.uniform(0.1, 1.0, size=(3, 3))
        m[2] = -1.0  # a zero projected row: degree 0, clamped to DEGREE_EPS
        f = reasoning_forward(m, identity_params(3))
        assert f.deg[2] == 0.0 and f.dc[2] == DEGREE_EPS
        assert np.isfinite(f.lap).all()
        assert f.lap[2, 2] == 1.0
        assert np.array_equal(f.lap[2, :2], np.zeros(2))


class TestGraphReason:
    def test_constant_signal_annihilated_by_uniform_adjacency(self):
        # identical rows give a uniform adjacency, so L M = 0 and relu keeps it zero
        m = np.tile([1.5, -0.5, 2.0], (4, 1))
        out = graph_reason(Tensor(m, dtype=np.float64), identity_params(3))
        assert out.shape == (4, 3)
        assert np.abs(out.data).max() < 1e-12

    def test_matches_dense_matmul_oracle(self, rng):
        x = rng.standard_normal((2, 2, 3))
        p = reasoning_params(3, rng, np.float64)
        got = graph_reason(Tensor(x.reshape(4, 3), dtype=np.float64), p).data
        # from-scratch oracle in canonical order, plain numpy throughout
        m = x.reshape(4, 3)
        order = canonical_vertex_order(m)
        mc = m[order]
        proj = np.maximum(mc @ p["proj_w"].data + p["proj_b"].data, 0.0)
        lam = np.maximum(mc.mean(axis=0) @ p["lambda_w"].data + p["lambda_b"].data, 0.0)
        adj = (proj * lam) @ proj.T
        adj = (adj + adj.T) / 2
        deg = np.maximum(adj.sum(axis=1), 1e-6)
        scale = np.outer(deg**-0.5, deg**-0.5)
        lap = np.eye(4) - adj * scale
        core = np.maximum(lap @ mc @ p["theta"].data, 0.0)
        expect = core[np.argsort(order)]
        assert np.abs(got - expect).max() < 1e-10


class TestSrrCrr:
    def test_srr_pixel_permutation_equivariance_exact(self, rng):
        x = rng.standard_normal((4, 4, 8)).astype(np.float32)
        p = reasoning_params(8, rng)
        perm = rng.permutation(16)
        x_perm = x.reshape(16, 8)[perm].reshape(4, 4, 8)
        out = srr(Tensor(x), p).data.reshape(16, 8)
        out_perm = srr(Tensor(x_perm), p).data.reshape(16, 8)
        assert np.array_equal(out[perm], out_perm)

    def test_crr_channel_permutation_equivariance_exact(self, rng):
        x = rng.standard_normal((4, 4, 6)).astype(np.float32)
        p = reasoning_params(16, rng)
        perm = rng.permutation(6)
        out = crr(Tensor(x), p).data
        out_perm = crr(Tensor(x[:, :, perm]), p).data
        assert np.array_equal(out[:, :, perm], out_perm)

    def test_single_vertex_degenerates_to_zero(self, rng):
        # one spatial vertex: L = 1 - 1 = 0
        x = rng.uniform(1.0, 2.0, size=(1, 1, 5))
        p = reasoning_params(5, rng, np.float64)
        out = srr(Tensor(x, dtype=np.float64), p)
        assert np.abs(out.data).max() == 0.0

    def test_single_channel_degenerates_to_zero(self, rng):
        x = rng.uniform(1.0, 2.0, size=(2, 2, 1))
        p = reasoning_params(4, rng, np.float64)
        out = crr(Tensor(x, dtype=np.float64), p)
        assert np.abs(out.data).max() == 0.0

    def test_srr_equals_unfused_pipeline(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float64)
        p = reasoning_params(8, rng, np.float64)
        got = srr(x, p).data
        m = reshape(x, (16, 8))
        order = canonical_vertex_order(m.data)
        mc = take_rows(m, order)
        lap = normalized_laplacian(adjacency(mc, p))
        core = relu(lap @ mc @ p["theta"])
        stepwise = reshape(take_rows(core, np.argsort(order)), (4, 4, 8)).data
        assert np.array_equal(got, stepwise)

    def test_crr_float32_equals_unfused_pipeline(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 3)).astype(np.float32))
        p = reasoning_params(16, rng)
        got = crr(x, p).data
        out = composed_graph_reason(transpose(reshape(x, (16, 3))), p)
        assert got.dtype == np.float32
        assert np.array_equal(got, reshape(transpose(out), (4, 4, 3)).data)

    def test_non_finite_adjacency_rejected(self, rng):
        # projected rows of ~1e200 square to ~1e400, past float64's range
        x = Tensor(np.full((2, 2, 3), 1e200), dtype=np.float64)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="adjacency produced non-finite entries"
        ):
            srr(x, identity_params(3))

    def test_crr_matches_stepwise_oracle(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 3)), dtype=np.float64)
        p = reasoning_params(16, rng, np.float64)
        got = crr(x, p).data
        m = transpose(reshape(x, (16, 3)))  # one row per channel
        got2 = reshape(transpose(graph_reason(m, p)), (4, 4, 3)).data
        assert np.array_equal(got, got2)

    def test_shapes_preserved(self, rng):
        x = Tensor(rng.standard_normal((4, 8, 6)).astype(np.float32))
        ps = reasoning_params(6, rng)
        pc = reasoning_params(32, rng)
        assert srr(x, ps).shape == x.shape
        assert crr(x, pc).shape == x.shape

    def test_rank3_input_required(self, rng):
        for fn, p in ((srr, reasoning_params(3, rng)), (crr, reasoning_params(9, rng))):
            with pytest.raises(ValueError, match="rank-3"):
                fn(Tensor(np.zeros((9, 3))), p)

    def test_output_non_negative(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32))
        p = reasoning_params(8, rng)
        assert (srr(x, p).data >= 0).all()


class TestFusedBackward:
    """graph_reason's closed-form backward against the composed Tensor
    pipeline's, in float64: every gradient agrees to 1e-12 of its largest entry."""

    @staticmethod
    def gradients(fn, m, p, weight):
        leaves = [("m", m)] + list(p.items())
        for _, t in leaves:
            t.zero_grad()
        out = fn(m, p)
        tensor_sum(out * weight).backward()
        return out.data, {name: t.grad.copy() for name, t in leaves}

    def assert_backward_matches(self, m, p, rng):
        weight = Tensor(rng.standard_normal(m.shape), dtype=np.float64)
        out, got = self.gradients(graph_reason, m, p, weight)
        ref, want = self.gradients(composed_graph_reason, m, p, weight)
        assert np.array_equal(out, ref)
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * np.abs(want[name]).max(), name

    def test_srr_shapes(self, rng):
        m = Tensor(rng.standard_normal((16, 8)), requires_grad=True, dtype=np.float64)
        self.assert_backward_matches(m, reasoning_params(8, rng, np.float64), rng)

    def test_crr_shapes(self, rng):
        m = Tensor(rng.standard_normal((3, 16)), requires_grad=True, dtype=np.float64)
        self.assert_backward_matches(m, reasoning_params(16, rng, np.float64), rng)

    def test_tied_rows(self, rng):
        data = rng.standard_normal((6, 4))
        data[3], data[5] = data[1], data[0]
        m = Tensor(data, requires_grad=True, dtype=np.float64)
        s = data.sum(axis=1)[np.argsort(data.sum(axis=1), kind="stable")]
        assert not (s[1:] > s[:-1]).all()  # canonical_vertex_order takes the lexsort
        self.assert_backward_matches(m, reasoning_params(4, rng, np.float64), rng)

    def test_degree_below_eps_is_clipped(self, rng):
        # a zero feature row projects to the bias: relu zeroes its negative
        # entries and keeps a 1e-9 one, so that vertex's degree is positive
        # but below DEGREE_EPS, and the clip's zero gradient applies to it
        data = rng.uniform(1.0, 2.0, size=(5, 3))
        data[2] = 0.0
        p = reasoning_params(3, rng, np.float64)
        for name in ("proj_w", "lambda_w", "lambda_b"):
            p[name].data[:] = np.abs(p[name].data) + 0.1
        p["proj_b"].data[:] = [-0.05, -0.05, 1e-9]
        m = Tensor(data, requires_grad=True, dtype=np.float64)
        deg = reasoning_forward(data, p).deg
        assert 0 < deg[2] < DEGREE_EPS and (np.delete(deg, 2) > DEGREE_EPS).all()
        self.assert_backward_matches(m, p, rng)


class TestNonLocal:
    def test_attention_rows_sum_to_one(self, rng):
        # re-derive the softmax attention from the same projections
        x = rng.standard_normal((3, 3, 4))
        p = nonlocal_params(4, rng, np.float64)
        m = x.reshape(9, 4)
        q = m @ p["theta_w"].data + p["theta_b"].data
        k = m @ p["phi_w"].data + p["phi_b"].data
        scores = q @ k.T
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-12

    def test_zero_g_projection_gives_pure_residual(self, rng):
        x = rng.standard_normal((3, 3, 4)).astype(np.float32)
        p = nonlocal_params(4, rng)
        p["g_w"].data[:] = 0.0
        out = non_local_block(Tensor(x), p)
        assert np.array_equal(out.data, x)

    def test_matches_bruteforce_pairwise_oracle(self, rng):
        x = rng.standard_normal((2, 2, 2))
        p = nonlocal_params(2, rng, np.float64)
        got = non_local_block(Tensor(x, dtype=np.float64), p).data
        m = x.reshape(4, 2)
        q = m @ p["theta_w"].data + p["theta_b"].data
        k = m @ p["phi_w"].data + p["phi_b"].data
        v = m @ p["g_w"].data + p["g_b"].data
        out = np.zeros_like(m)
        for i in range(4):
            scores = np.array([q[i] @ k[j] for j in range(4)])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            y = sum(w[j] * v[j] for j in range(4))
            out[i] = y @ p["out_w"].data + p["out_b"].data + m[i]
        assert np.abs(got - out.reshape(2, 2, 2)).max() < 1e-10

    def test_shape_validation(self, rng):
        p = nonlocal_params(4, rng)
        with pytest.raises(ValueError, match="channels"):
            non_local_block(Tensor(np.zeros((2, 2, 3))), p)
        with pytest.raises(ValueError, match="rank-3"):
            non_local_block(Tensor(np.zeros((2, 2))), p)

    def test_gradients_pass_fd_check(self, rng):
        from rrnet.checks import gradcheck
        from rrnet.tensor import tensor_sum

        x = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True, dtype=np.float64)
        p = nonlocal_params(4, rng, np.float64)
        leaves = [("x", x)] + list(p.items())
        res = gradcheck(lambda: tensor_sum(non_local_block(x, p) ** 2.0), leaves)
        assert res.ok, f"max rel err {res.max_rel_error:.3e} in {res.worst_param}"


class TestCanonicalOrder:
    def test_duplicate_rows_fall_back_to_lexicographic(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
        order = canonical_vertex_order(m)
        # sums tie everywhere; lexicographic puts the duplicate [1,2] rows first
        assert np.array_equal(np.sort(order[:2]), [0, 2])

    @staticmethod
    def unique_rule(m):
        """The rule as first written: argsort the row sums when np.unique finds
        them all distinct, else lexsort the rows."""
        sums = m.sum(axis=1)
        if np.unique(sums).size == sums.size:
            return np.argsort(sums, kind="stable")
        return np.lexsort(tuple(m[:, j] for j in reversed(range(m.shape[1]))))

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[3.0, 1.0], [0.5, 0.0], [2.0, 2.0]]),  # distinct sums
            np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [0.0, 0.0]]),  # tied rows
            np.array([[-0.0, -0.0], [0.0, 0.0], [1.0, 0.0]]),  # a -0.0/0.0 tie
            np.array([[0.0, 0.0], [-0.0, 0.0], [-1.0, 0.0]], dtype=np.float32),
        ],
        ids=["distinct", "tied", "signed_zero", "signed_zero_f32"],
    )
    def test_matches_the_unique_rule(self, m):
        assert np.array_equal(canonical_vertex_order(m), self.unique_rule(m))

    def test_matches_the_unique_rule_on_random_matrices(self, rng):
        for i in range(200):
            n, c = rng.integers(1, 12, size=2)
            if i % 2:  # small integers: tied sums are common
                m = rng.integers(-2, 3, size=(n, c)).astype(np.float64)
            else:
                m = rng.standard_normal((n, c)).astype(np.float32)
            assert np.array_equal(canonical_vertex_order(m), self.unique_rule(m)), m

    def test_gradients_flow_through_reasoning(self, rng):
        from rrnet.checks import gradcheck
        from rrnet.tensor import tensor_sum

        x = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True, dtype=np.float64)
        p = reasoning_params(4, rng, np.float64)
        leaves = [("x", x)] + list(p.items())
        res = gradcheck(lambda: tensor_sum(srr(x, p) ** 2.0), leaves)
        assert res.ok, f"max rel err {res.max_rel_error:.3e} in {res.worst_param}"
