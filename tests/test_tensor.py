"""Forward-value tests for the tensor primitives against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from rrnet.tensor import (
    Tensor,
    channel_pool,
    clip,
    concat,
    conv2d,
    matmul,
    relu,
    reshape,
    sigmoid,
    softmax,
    take_rows,
    tensor_sum,
    transpose,
    upsample2x,
)


def _same_padding(h, wd, k, stride):
    """Output size and top/left zero padding of a same-padded conv."""
    h_out = -(-h // stride)
    w_out = -(-wd // stride)
    pad_h = max((h_out - 1) * stride + k - h, 0)
    pad_w = max((w_out - 1) * stride + k - wd, 0)
    return h_out, w_out, pad_h // 2, pad_w // 2


def _loop_conv(x, w, b=None, stride=1):
    """Naive direct convolution, quadruple loop, zero same-padding."""
    h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    h_out, w_out, pt, pl = _same_padding(h, wd, k, stride)
    out = np.zeros((h_out, w_out, cout), dtype=np.float64)
    for i in range(h_out):
        for j in range(w_out):
            for co in range(cout):
                acc = 0.0
                for di in range(k):
                    for dj in range(k):
                        si = i * stride + di - pt
                        sj = j * stride + dj - pl
                        if 0 <= si < h and 0 <= sj < wd:
                            for ci in range(cin):
                                acc += x[si, sj, ci] * w[di, dj, ci, co]
                out[i, j, co] = acc + (b[co] if b is not None else 0.0)
    return out


def _loop_conv_grads(x, w, g, stride=1):
    """Gradients of sum(conv2d(x, w, b, stride) * g) by x, w and b, one output pixel and tap at a time."""
    h, wd, _ = x.shape
    k = w.shape[0]
    h_out, w_out, pt, pl = _same_padding(h, wd, k, stride)
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for i in range(h_out):
        for j in range(w_out):
            for di in range(k):
                for dj in range(k):
                    si = i * stride + di - pt
                    sj = j * stride + dj - pl
                    if 0 <= si < h and 0 <= sj < wd:
                        gx[si, sj] += w[di, dj] @ g[i, j]
                        gw[di, dj] += np.outer(x[si, sj], g[i, j])
    return gx, gw, g.sum(axis=(0, 1))


class TestPrimitives:
    def test_matmul_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_concat_descriptor_shape(self, rng):
        avg = Tensor(rng.uniform(size=(5, 6, 1)))
        mx = Tensor(rng.uniform(size=(5, 6, 1)))
        assert concat([avg, mx], axis=2).shape == (5, 6, 2)

    def test_concat_negative_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal((2, 4)), requires_grad=True, dtype=np.float64)
        out = concat([a, b], axis=-1)
        assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=1))
        g = rng.standard_normal((2, 7))
        tensor_sum(out * Tensor(g, dtype=np.float64)).backward()
        assert np.array_equal(a.grad, g[:, :3])
        assert np.array_equal(b.grad, g[:, 3:])

    @pytest.mark.parametrize("axis", [2, -3])
    def test_concat_axis_out_of_range_rejected(self, axis):
        with pytest.raises(ValueError, match="out of range"):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=axis)

    def test_add_matches_scalar_loop(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        out = (Tensor(a, dtype=np.float64) + Tensor(b, dtype=np.float64)).data
        for i in range(3):
            for j in range(3):
                assert out[i, j] == a[i, j] + b[i, j]

    def test_add_shape_mismatch_names_dims(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4,\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros(4))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_transpose_reshape_roundtrip(self, rng):
        a = rng.standard_normal((4, 5))
        t = Tensor(a)
        assert np.array_equal(transpose(transpose(t)).data, a)
        assert np.array_equal(reshape(reshape(t, (20,)), (4, 5)).data, a)

    def test_take_rows_gathers(self, rng):
        a = rng.standard_normal((5, 3))
        idx = np.array([4, 0, 2, 1, 3])
        assert np.array_equal(take_rows(Tensor(a), idx).data, a[idx])


class TestConv2d:
    def test_center_tap_isolated(self):
        x = Tensor(np.full((1, 1, 1), 2.5))
        w = np.arange(9, dtype=np.float32).reshape(3, 3, 1, 1)
        out = conv2d(x, Tensor(w), Tensor(np.zeros(1)))
        # zero padding leaves only the center tap (weight 4) in play
        assert out.data[0, 0, 0] == np.float32(4.0 * 2.5)

    def test_all_ones_tap_counts(self):
        x = Tensor(np.ones((5, 5, 1)))
        w = Tensor(np.ones((3, 3, 1, 1)))
        out = conv2d(x, w, Tensor(np.zeros(1))).data[:, :, 0]
        assert out[2, 2] == 9.0
        assert out[0, 0] == 4.0
        assert out[0, 2] == 6.0

    def test_random_matches_loop_oracle(self, rng):
        x = rng.standard_normal((7, 7, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        b = rng.standard_normal(3)
        got = conv2d(
            Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64)
        ).data
        assert np.abs(got - _loop_conv(x, w, b)).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 5, 7])
    def test_other_kernel_sizes_match_oracle(self, rng, k):
        w = rng.standard_normal((k, k, 2, 2))
        for shape, stride in (((8, 6, 2), 1), ((7, 5, 2), 2)):
            x = rng.standard_normal(shape)
            got = conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), stride=stride).data
            assert np.abs(got - _loop_conv(x, w, stride=stride)).max() < 1e-12

    def test_stride2_matches_loop_oracle(self, rng):
        x = rng.standard_normal((8, 8, 3))
        w = rng.standard_normal((3, 3, 3, 4))
        got = conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), stride=2).data
        assert got.shape == (4, 4, 4)
        assert np.abs(got - _loop_conv(x, w, stride=2)).max() < 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_gradients_match_loop_oracle(self, rng, k, stride):
        # odd, even and non-square maps with Cin != Cout; at k >= 3 the last
        # map is narrower than the kernel
        for shape, cout in (((7, 7, 3), 2), ((6, 8, 2), 3), ((5, 9, 3), 4), ((3, 2, 2), 3)):
            arrays = {
                "x": rng.standard_normal(shape),
                "w": rng.standard_normal((k, k, shape[2], cout)),
                "b": rng.standard_normal(cout),
            }
            h_out, w_out, _, _ = _same_padding(shape[0], shape[1], k, stride)
            g = rng.standard_normal((h_out, w_out, cout))
            want = dict(zip("xwb", _loop_conv_grads(arrays["x"], arrays["w"], g, stride)))
            for grads in ("xwb", "x", "w"):
                leaves = {
                    name: Tensor(a.copy(), requires_grad=name in grads, dtype=np.float64)
                    for name, a in arrays.items()
                }
                out = conv2d(leaves["x"], leaves["w"], leaves["b"], stride=stride)
                tensor_sum(out * Tensor(g, dtype=np.float64)).backward()
                for name, leaf in leaves.items():
                    assert np.array_equal(leaf.data, arrays[name])
                    if name in grads:
                        assert leaf.grad.shape == want[name].shape
                        assert np.abs(leaf.grad - want[name]).max() < 1e-12, (shape, grads, name)
                    else:
                        assert leaf.grad is None

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((2, 2, 1, 1))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))

    def test_linearity(self, rng):
        x = rng.standard_normal((6, 6, 2))
        y = rng.standard_normal((6, 6, 2))
        w = Tensor(rng.standard_normal((3, 3, 2, 2)), dtype=np.float64)
        alpha, beta = 1.7, -0.45
        lhs = conv2d(Tensor(alpha * x + beta * y, dtype=np.float64), w).data
        rhs = alpha * conv2d(Tensor(x, dtype=np.float64), w).data + beta * conv2d(
            Tensor(y, dtype=np.float64), w
        ).data
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_backward_memory_stays_near_input_size(self, rng, stride):
        """A 7x7 conv at 56x56x16 keeps no k*k-sized window buffer, forward or
        backward, and after the forward pass holds its output but no padded
        copy of the input."""
        x = Tensor(rng.standard_normal((56, 56, 16)), requires_grad=True, dtype=np.float32)
        w = Tensor(rng.standard_normal((7, 7, 16, 16)), requires_grad=True, dtype=np.float32)
        tracemalloc.start()
        try:
            y = conv2d(x, w, stride=stride)
            held = tracemalloc.get_traced_memory()[0]
            tensor_sum(y).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < y.data.nbytes + 16384, f"forward holds {held} bytes for a {y.data.nbytes}-byte output"
        assert peak < 12 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input's bytes"


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu_negative_clamp(self):
        assert relu(Tensor([-2.5])).data[0] == 0.0

    def test_sigmoid_strictly_inside_unit_interval(self):
        x = Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=np.float32))
        s = sigmoid(x).data
        assert (s > 0.0).all() and (s < 1.0).all()

    def test_softmax_rows_sum_to_one(self, rng):
        s = softmax(Tensor(rng.standard_normal((5, 7)), dtype=np.float64)).data
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12

    def test_clip_bounds(self):
        out = clip(Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0)
        assert np.array_equal(out.data, [0.0, 0.5, 1.0])


class TestPool:
    def test_channel_pool_single_channel_identity(self, rng):
        x = rng.uniform(size=(4, 5, 1)).astype(np.float32)
        out = channel_pool(Tensor(x)).data
        assert out.dtype == np.float32
        assert np.array_equal(out, np.concatenate([x, x], axis=2))

    def test_channel_pool_two_values(self):
        x = np.zeros((1, 1, 2), dtype=np.float32)
        x[0, 0] = [1.0, 3.0]
        assert channel_pool(Tensor(x)).data.tolist() == [[[2.0, 3.0]]]

    def test_channel_pool_tied_max_gradient_goes_to_first_argmax(self):
        x = Tensor(np.array([[[1.0, 2.0, 2.0, 0.5]]]), requires_grad=True, dtype=np.float64)
        out = channel_pool(x)
        tensor_sum(out * Tensor(np.array([[[0.5, 3.0]]]))).backward()
        assert x.grad.tolist() == [[[0.125, 0.125 + 3.0, 0.125, 0.125]]]

    def test_upsample2x_replication(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        out = upsample2x(x).data[:, :, 0]
        expect = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64
        )
        assert np.array_equal(out, expect)

    def test_upsample_then_avgpool_is_identity(self, rng):
        x = rng.standard_normal((5, 7, 3)).astype(np.float32)
        up = upsample2x(Tensor(x)).data
        down = up.reshape(5, 2, 7, 2, 3).mean(axis=(1, 3))
        assert np.array_equal(down.astype(np.float32), x)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank-3"):
            channel_pool(Tensor(np.zeros((3, 3))))


class TestDescriptorOracle:
    def test_channel_stats_match_loop(self, rng):
        x = rng.uniform(size=(5, 5, 6))
        t = Tensor(x, dtype=np.float64)
        avg, mx = np.moveaxis(channel_pool(t).data, 2, 0)
        for i in range(5):
            for j in range(5):
                assert avg[i, j] == pytest.approx(sum(x[i, j]) / 6, abs=1e-12)
                assert mx[i, j] == max(x[i, j])
