"""Parallel multi-scale attention: branch oracles, range and invariance contracts."""

import numpy as np
import pytest

from rrnet.attention import (
    SCALES,
    fuse_maps,
    left_branch,
    pma,
    pma_shapes,
    right_branch,
)
from rrnet.init import init_params
from rrnet.tensor import Tensor, channel_pool, conv2d, relu, reshape, sigmoid, tensor_sum


def pma_params(channels, rng, dtype=np.float32):
    return init_params(pma_shapes(channels), rng, dtype)


def zero_params(channels, dtype=np.float64):
    return {
        name: Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        for name, shape in pma_shapes(channels).items()
    }


# The unfolded module, one 2 -> 1 attention conv per scale, kept as the
# reference for the stacked convs of rrnet.attention.


def spatial_attention(x, p, conv):
    return sigmoid(conv2d(channel_pool(x), p[f"{conv}.w"], p[f"{conv}.b"]))


def oracle_left_branch(x, p):
    d = channel_pool(x)
    maps = [sigmoid(conv2d(d, p[f"left.k{k}.w"], p[f"left.k{k}.b"])) for k in SCALES]
    return reshape((maps[0] + maps[1] + maps[2]) * (1.0 / 3.0), x.shape[:2])


def oracle_right_branch(x, p):
    maps = []
    for k in SCALES:
        feat = relu(conv2d(x, p[f"right.k{k}.w"], p[f"right.k{k}.b"]))
        maps.append(spatial_attention(feat, p, f"att.k{k}"))
    return reshape((maps[0] + maps[1] + maps[2]) * (1.0 / 3.0), x.shape[:2])


def oracle_pma(x, p):
    return fuse_maps(oracle_left_branch(x, p), oracle_right_branch(x, p), p)


def shuffled(p):
    """The same entries, inserted in reverse order."""
    return dict(reversed(p.items()))


class TestFoldMatchesUnfoldedOracle:
    """The stacked convs sum the same products as the per-scale ones; only
    BLAS's rounding of each tap's dot product may differ (a 2 -> 1 tap runs
    as a matrix-vector product, a 2 -> 3 tap as a matrix product). The maps
    lie in (0, 1), behind sigmoids of slope <= 1/4, so they agree to a few
    units of the dtype's epsilon."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs(self, rng, dtype):
        tol = 4 * np.finfo(dtype).eps
        p = pma_params(5, rng, dtype)
        x = Tensor(rng.standard_normal((11, 9, 5)).astype(dtype))
        for params in (p, shuffled(p)):
            for fold, oracle in (
                (left_branch, oracle_left_branch),
                (right_branch, oracle_right_branch),
                (pma, oracle_pma),
            ):
                got, want = fold(x, params).data, oracle(x, p).data
                assert got.dtype == want.dtype == dtype and got.shape == want.shape
                assert np.abs(got - want).max() <= tol, fold.__name__

    def test_parameter_gradients(self, rng):
        p = pma_params(3, rng, np.float64)
        x = Tensor(rng.standard_normal((7, 6, 3)), requires_grad=True, dtype=np.float64)
        leaves = [("x", x)] + list(p.items())
        weight = Tensor(rng.standard_normal((7, 6)), dtype=np.float64)
        grads = []
        for fn in (pma, oracle_pma):
            for _, t in leaves:
                t.zero_grad()
            tensor_sum(fn(x, p) * weight).backward()
            grads.append({name: t.grad.copy() for name, t in leaves})
        for name, _ in leaves:
            got, want = grads[0][name], grads[1][name]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestDescriptor:
    def test_single_channel_gives_equal_stats(self, rng):
        x = rng.uniform(size=(4, 4, 1)).astype(np.float32)
        d = channel_pool(Tensor(x)).data
        assert np.array_equal(d[:, :, 0], x[:, :, 0])
        assert np.array_equal(d[:, :, 1], x[:, :, 0])

    def test_two_channel_example(self):
        x = np.zeros((1, 1, 2), dtype=np.float64)
        x[0, 0] = [0.0, 4.0]
        d = channel_pool(Tensor(x, dtype=np.float64)).data
        assert d[0, 0, 0] == 2.0
        assert d[0, 0, 1] == 4.0

    def test_matches_per_pixel_loop(self, rng):
        x = rng.uniform(size=(5, 5, 6))
        d = channel_pool(Tensor(x, dtype=np.float64)).data
        for i in range(5):
            for j in range(5):
                assert d[i, j, 0] == pytest.approx(x[i, j].mean(), abs=1e-12)
                assert d[i, j, 1] == x[i, j].max()

    def test_channel_permutation_invariance_exact(self, rng):
        x = rng.standard_normal((6, 6, 8)).astype(np.float32)
        perm = rng.permutation(8)
        a = channel_pool(Tensor(x)).data
        b = channel_pool(Tensor(np.ascontiguousarray(x[:, :, perm]))).data
        assert np.array_equal(a, b)

    def test_rank_check(self):
        with pytest.raises(ValueError, match="rank-3"):
            channel_pool(Tensor(np.zeros((3, 3))))


class TestLeftBranch:
    def test_zero_params_give_half_everywhere(self, rng):
        x = Tensor(rng.standard_normal((6, 6, 3)), dtype=np.float64)
        out = left_branch(x, zero_params(3)).data
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_identical_scale_outputs_average_to_single_sigmoid(self, rng):
        # force the 5x5 and 7x7 kernels to compute exactly the 3x3 result by
        # zero-padding the same 3x3 kernel into the larger slots
        p = zero_params(3)
        core = rng.standard_normal((3, 3, 2, 1))
        p["left.k3.w"].data[:] = core
        p["left.k5.w"].data[1:4, 1:4] = core
        p["left.k7.w"].data[2:5, 2:5] = core
        x = Tensor(rng.standard_normal((6, 6, 3)), dtype=np.float64)
        out = left_branch(x, p).data
        single = sigmoid(conv2d(channel_pool(x), p["left.k3.w"], p["left.k3.b"])).data[:, :, 0]
        assert np.abs(out - single).max() < 1e-12

    def test_matches_per_scale_recomputation(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 4)), dtype=np.float64)
        p = pma_params(4, rng, np.float64)
        got = left_branch(x, p).data
        d = channel_pool(x)
        acc = np.zeros((8, 8))
        for k in SCALES:
            acc += sigmoid(conv2d(d, p[f"left.k{k}.w"], p[f"left.k{k}.b"])).data[:, :, 0]
        assert np.abs(got - acc / 3.0).max() < 1e-10

    def test_channel_permutation_invariance_exact(self, rng):
        x = rng.standard_normal((8, 8, 5)).astype(np.float32)
        p = pma_params(5, rng)
        perm = rng.permutation(5)
        a = left_branch(Tensor(x), p).data
        b = left_branch(Tensor(np.ascontiguousarray(x[:, :, perm])), p).data
        assert np.array_equal(a, b)


class TestRightBranch:
    def test_zero_input_zero_bias_gives_half(self):
        x = Tensor(np.zeros((6, 6, 3)), dtype=np.float64)
        out = right_branch(x, zero_params(3)).data
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_equal_features_reduce_to_single_scale_attention(self, rng):
        # identical per-scale params at every kernel size is impossible
        # (shapes differ), but zero feature-kernels make all three F_n equal
        p = zero_params(3)
        att = rng.standard_normal((7, 7, 2, 1))
        for k in SCALES:
            p[f"att.k{k}.w"].data[:] = att
            p[f"right.k{k}.b"].data[:] = [0.3, -0.2, 0.7]
        x = Tensor(rng.standard_normal((6, 6, 3)), dtype=np.float64)
        got = right_branch(x, p).data
        feat = relu(conv2d(x, p["right.k3.w"], p["right.k3.b"]))
        single = spatial_attention(feat, p, "att.k3").data[:, :, 0]
        assert np.abs(got - single).max() < 1e-12

    def test_matches_per_scale_recomputation(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 4)), dtype=np.float64)
        p = pma_params(4, rng, np.float64)
        got = right_branch(x, p).data
        acc = np.zeros((8, 8))
        for k in SCALES:
            feat = relu(conv2d(x, p[f"right.k{k}.w"], p[f"right.k{k}.b"]))
            acc += spatial_attention(feat, p, f"att.k{k}").data[:, :, 0]
        assert np.abs(got - acc / 3.0).max() < 1e-10


class TestFuse:
    def test_unit_weights_zero_inputs_give_half(self):
        p = zero_params(2)
        p["fuse.w"].data[:] = 1.0
        a = Tensor(np.zeros((5, 5)), dtype=np.float64)
        out = fuse_maps(a, a, p).data
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_zero_weights_bias_only(self, rng):
        p = zero_params(2)
        bias = 0.8
        p["fuse.b"].data[:] = bias
        a = Tensor(rng.uniform(size=(5, 5)), dtype=np.float64)
        b = Tensor(rng.uniform(size=(5, 5)), dtype=np.float64)
        out = fuse_maps(a, b, p).data
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-bias)), atol=1e-12)

    def test_matches_scalar_formula(self, rng):
        p = pma_params(2, rng, np.float64)
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        got = fuse_maps(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64), p).data
        w = p["fuse.w"].data[0, 0, :, 0]
        bias = p["fuse.b"].data[0]
        for i in range(4):
            for j in range(4):
                z = a[i, j] * w[0] + b[i, j] * w[1] + bias
                assert got[i, j] == pytest.approx(1.0 / (1.0 + np.exp(-z)), abs=1e-10)

    def test_shape_mismatch_rejected(self):
        p = zero_params(2)
        with pytest.raises(ValueError, match="share a shape"):
            fuse_maps(Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 5))), p)


class TestPma:
    def test_output_shape_and_range(self, rng):
        for h, w in ((8, 8), (6, 10)):
            x = Tensor(rng.standard_normal((h, w, 4)).astype(np.float32))
            p = pma_params(4, rng)
            out = pma(x, p)
            assert out.shape == (h, w)
            assert (out.data > 0).all() and (out.data < 1).all()

    def test_all_zero_params_give_half(self, rng):
        x = Tensor(rng.standard_normal((6, 6, 3)), dtype=np.float64)
        out = pma(x, zero_params(3)).data
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_equals_manual_composition(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 4)), dtype=np.float64)
        p = pma_params(4, rng, np.float64)
        got = pma(x, p).data
        manual = fuse_maps(left_branch(x, p), right_branch(x, p), p).data
        assert np.array_equal(got, manual)

    def test_branch_variants_duplicate_single_branch(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 4)), dtype=np.float64)
        p = pma_params(4, rng, np.float64)
        left = pma(x, p, branch="left").data
        a = left_branch(x, p)
        assert np.array_equal(left, fuse_maps(a, a, p).data)
        right = pma(x, p, branch="right").data
        both = pma(x, p).data
        assert (left > 0).all() and (left < 1).all()
        assert (right > 0).all() and (right < 1).all()
        assert not np.array_equal(left, both)
        assert not np.array_equal(right, both)
        with pytest.raises(ValueError, match="unknown pma branch"):
            pma(x, p, branch="middle")

    def test_scale_dict_order_does_not_matter(self, rng):
        x = Tensor(rng.standard_normal((8, 8, 3)).astype(np.float32))
        p = pma_params(3, rng)
        assert np.array_equal(pma(x, p).data, pma(x, shuffled(p)).data)

    def test_gradients_of_fused_map_pass_fd_check(self, rng):
        from rrnet.checks import gradcheck
        from rrnet.tensor import tensor_sum

        x = Tensor(rng.standard_normal((6, 6, 2)), dtype=np.float64)
        p = pma_params(2, rng, np.float64)
        leaves = list(p.items())
        res = gradcheck(lambda: tensor_sum(pma(x, p) ** 2.0), leaves)
        assert res.ok, f"max rel err {res.max_rel_error:.3e} in {res.worst_param}"
