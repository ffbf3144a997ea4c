"""Shared catalog of per-op gradient-check cases.

Each case builds fresh double-precision leaves and returns (leaves, loss_fn);
the loss closure re-runs the forward pass from those leaves, which is what
finite differencing needs.
"""

import numpy as np

from rrnet import tensor as T
from rrnet.tensor import Tensor


def _leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def op_cases(rng):
    def binary(op, sa, sb, **kw):
        a = _leaf(rng, *sa)
        b = _leaf(rng, *sb)
        return [("a", a), ("b", b)], lambda: T.tensor_sum(op(a, b, **kw) ** 2.0)

    def unary(op, shape, **kw):
        a = _leaf(rng, *shape)
        return [("a", a)], lambda: T.tensor_sum(op(a, **kw) ** 2.0)

    def conv(sx, sw, stride=1, bias=False):
        x, w = _leaf(rng, *sx), _leaf(rng, *sw)
        b = _leaf(rng, sw[3]) if bias else None
        leaves = [("x", x), ("w", w)] + ([("bias", b)] if bias else [])
        return leaves, lambda: T.tensor_sum(T.conv2d(x, w, b, stride=stride) ** 2.0)

    yield "add", lambda: binary(T.add, (3, 4), (3, 4))
    yield "add_broadcast", lambda: binary(T.add, (3, 4), (1, 4))
    yield "mul", lambda: binary(T.mul, (3, 4), (3, 4))
    yield "mul_broadcast_channel", lambda: binary(T.mul, (3, 4, 2), (3, 4, 1))
    yield "mul_outer", lambda: binary(T.mul, (4, 1), (1, 4))
    yield "matmul", lambda: binary(T.matmul, (3, 5), (5, 2))
    yield "conv2d_k3", lambda: conv((5, 5, 2), (3, 3, 2, 2))
    yield "conv2d_k3_bias", lambda: conv((5, 5, 2), (3, 3, 2, 2), bias=True)
    yield "conv2d_k1", lambda: conv((4, 4, 3), (1, 1, 3, 2))
    yield "conv2d_k5", lambda: conv((6, 6, 2), (5, 5, 2, 2))
    yield "conv2d_k7_descriptor", lambda: conv((6, 6, 2), (7, 7, 2, 1))
    yield "conv2d_stride2", lambda: conv((6, 6, 2), (3, 3, 2, 2), stride=2)
    yield "conv2d_stride2_odd", lambda: conv((7, 5, 2), (3, 3, 2, 2), stride=2)
    yield "conv2d_k1_stride2", lambda: conv((5, 5, 3), (1, 1, 3, 2), stride=2)
    yield "relu", lambda: unary(T.relu, (4, 4))
    yield "sigmoid", lambda: unary(T.sigmoid, (4, 4))
    yield "softmax", lambda: unary(T.softmax, (4, 5))
    yield "transpose", lambda: unary(T.transpose, (3, 5))
    yield "reshape", lambda: unary(lambda a: T.reshape(a, (15,)), (3, 5))
    yield "sum_axis", lambda: unary(lambda a: T.tensor_sum(a, axis=1), (4, 5))
    yield "upsample2x", lambda: unary(T.upsample2x, (3, 4, 2))
    yield "channel_avg", lambda: unary(T.channel_avg, (3, 3, 5))
    yield "channel_max", lambda: unary(T.channel_max, (3, 3, 5))
    yield "global_vertex_avg", lambda: unary(T.global_vertex_avg, (6, 4))
    yield "power", lambda: unary(lambda a: (a * a + 1.0) ** -0.5, (4, 4))
    yield "log_of_clip", lambda: unary(lambda a: T.log(T.clip(T.sigmoid(a), 1e-7, 1 - 1e-7)), (4, 4))
    yield "concat", lambda: binary(lambda a, b: T.concat([a, b], axis=1), (3, 2), (3, 4))
    yield "take_rows", lambda: unary(lambda a: T.take_rows(a, np.array([3, 0, 2, 2, 1])), (4, 3))
