"""Reverse-mode correctness: hand cases plus finite-difference checks per op."""

import zlib

import numpy as np
import pytest

from rrnet import tensor as T
from rrnet.checks import gradcheck, numerical_gradient, op_cases
from rrnet.tensor import Tensor, no_grad


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestBackwardBasics:
    def test_linear_map(self, rng):
        x = leaf(rng, 3, 4)
        loss = T.tensor_sum(x * 2.0)
        loss.backward()
        assert np.array_equal(x.grad, np.full((3, 4), 2.0))

    def test_quadratic(self):
        x = Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
        loss = T.tensor_sum(x * x)
        loss.backward()
        assert np.array_equal(x.grad, [2.0, -4.0])

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor([0.0], requires_grad=True, dtype=np.float64)
        T.tensor_sum(T.sigmoid(x)).backward()
        assert x.grad[0] == pytest.approx(0.25, abs=1e-12)

    def test_non_scalar_loss_rejected(self, rng):
        x = leaf(rng, 3)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_second_backward_rejected(self, rng):
        x = leaf(rng, 3)
        loss = T.tensor_sum(x * x)
        loss.backward()
        with pytest.raises(RuntimeError, match="rerun the forward"):
            loss.backward()

    def test_backward_through_shared_subgraph_rejected_after_free(self, rng):
        x = leaf(rng, 3)
        y = x * 2.0
        loss1 = T.tensor_sum(y)
        loss2 = T.tensor_sum(y * y)
        loss1.backward()
        with pytest.raises(RuntimeError, match="rerun the forward"):
            loss2.backward()

    def test_off_path_tensor_gets_zero_gradient(self, rng):
        x = leaf(rng, 4)
        y = leaf(rng, 4)
        T.tensor_sum(y * y).backward()
        assert np.array_equal(x.grad, np.zeros(4))

    def test_grad_accumulates_across_backwards(self, rng):
        x = leaf(rng, 3)
        T.tensor_sum(x * 3.0).backward()
        T.tensor_sum(x * 2.0).backward()
        assert np.array_equal(x.grad, np.full(3, 5.0))

    def test_no_grad_suppresses_tape(self, rng):
        x = leaf(rng, 3)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad and y._prev == ()

    def test_reused_operand_accumulates(self):
        x = Tensor([3.0], requires_grad=True, dtype=np.float64)
        loss = T.tensor_sum(x * x + x * 4.0)
        loss.backward()
        assert x.grad[0] == pytest.approx(2 * 3.0 + 4.0)

    def test_shared_upstream_gradient_is_not_aliased(self):
        # add's backward hands one array to both operands; a later
        # accumulation into one of them must not show up in the other
        a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        (T.tensor_sum(a + b) + T.tensor_sum(a * 3.0)).backward()
        assert np.array_equal(b.grad, np.ones(3))
        assert np.array_equal(a.grad, np.full(3, 4.0))


@pytest.mark.parametrize("name", [n for n, _ in op_cases(np.random.default_rng(0))])
def test_op_gradients_match_finite_differences(name):
    """Twenty seeded random trials per op, double precision, rel err < 1e-4."""
    for trial in range(20):
        rng = np.random.default_rng(zlib.crc32(name.encode()) + trial)
        build = dict(op_cases(rng))[name]
        leaves, fn = build()
        res = gradcheck(fn, leaves)
        assert res.ok, f"{name} trial {trial}: max rel err {res.max_rel_error:.3e} in {res.worst_param}"


class TestNumericalGradientHelper:
    def test_matches_known_derivative(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        num = numerical_gradient(lambda: T.tensor_sum(x * x * x), x)
        assert num[0] == pytest.approx(12.0, rel=1e-8)

    def test_clip_gradient_masks_outside(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True, dtype=np.float64)
        T.tensor_sum(T.clip(x, 0.0, 1.0)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_log_gradient(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        T.tensor_sum(T.log(x)).backward()
        assert x.grad[0] == pytest.approx(0.5, abs=1e-12)
