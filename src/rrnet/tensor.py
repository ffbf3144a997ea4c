"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: it covers exactly the operator set the
network needs (elementwise arithmetic, matmul, concatenation, reshapes,
same-padded convolution, the pooling variants and the two activations).
Convolution is one matmul per kernel tap over shifted views of the padded
input, in the forward pass and in both gradients, so it never builds a
window buffer k*k times the size of its input.

Every op records a backward closure ``backward(g)`` on a per-forward tape;
``g`` is the gradient that reached the op's output. Calling ``backward()`` on
a scalar loss walks the tape once and then frees it, so a second backward
without a fresh forward pass is rejected. A closure never holds its own
output, so a graph dropped without a backward pass is freed by reference
counting alone.

float32 is the working dtype for training and inference; all ops also run in
float64, which the finite-difference gradient checks rely on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NumericalError",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "concat",
    "reshape",
    "transpose",
    "tensor_sum",
    "mean",
    "relu",
    "sigmoid",
    "log",
    "clip",
    "softmax",
    "conv2d",
    "upsample2x",
    "channel_pool",
    "global_vertex_avg",
    "take_rows",
]

# Sigmoid outputs are clamped into this open interval so downstream logs stay
# finite even in float32.
SIGMOID_MIN = 1e-7

_FLOAT_DTYPES = (np.float32, np.float64)


class NumericalError(RuntimeError):
    """A computation produced non-finite values (NaN/Inf)."""


_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    """A dense N-D array of reals with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        """Accumulated gradient; reads as zeros when nothing reached it.

        The array may be shared with other tensors' gradients or be a
        read-only broadcast view, so treat it as read-only.
        """
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar loss through the recorded tape."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._prev and node._backward is None:
                raise RuntimeError(
                    "graph already backpropagated; rerun the forward pass before calling backward() again"
                )
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node._grad)
                node._backward = None  # free the tape

    def _accumulate(self, g) -> None:
        # g may be shared (add's backward hands one array to both operands),
        # so it is kept without a copy and never written in place
        if self._grad is None:
            self._grad = np.asarray(g, dtype=self.data.dtype)
        else:
            self._grad = self._grad + g

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self):
        return mean(self)


def _wrap(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else np.float32))


def _from_op(data, parents: Sequence[Tensor], backward) -> Tensor:
    """Wrap an op's result; ``backward(g)`` gets the output gradient ``g``.

    ``backward`` is kept only when some parent requires grad, so the backward
    of a single-parent op need not check its parent.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{opname}: cannot broadcast shapes {a.shape} and {b.shape}") from None


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a.dtype)
    _check_broadcast(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _from_op(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a.dtype)
    _check_broadcast(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _from_op(a.data * b.data, (a, b), backward)


def power(a, p) -> Tensor:
    """Elementwise a**p for a scalar exponent p."""
    a = _wrap(a)
    p = float(p)

    def backward(g):
        a._accumulate(g * p * np.power(a.data, p - 1.0))

    return _from_op(np.power(a.data, p), (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul supports 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _from_op(a.data @ b.data, (a, b), backward)


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(int(s) for s in shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _from_op(a.data.reshape(shape), (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _from_op(a.data.transpose(axes), (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ValueError("concat needs at least one operand")
    ref = ts[0].shape
    for t in ts[1:]:
        if t.ndim != len(ref) or any(
            i != axis and t.shape[i] != ref[i] for i in range(t.ndim)
        ):
            raise ValueError(
                f"concat along axis {axis}: incompatible shapes {[t.shape for t in ts]}"
            )
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _from_op(np.concatenate([t.data for t in ts], axis=axis), ts, backward)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0; scatter-adds on the way back."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, idx, g)
        a._accumulate(grad)

    return _from_op(a.data[idx], (a,), backward)


# -- reductions ----------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a) -> Tensor:
    a = _wrap(a)
    return mul(tensor_sum(a), 1.0 / a.size)


# -- activations and friends -----------------------------------------------------


def relu(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _from_op(np.maximum(a.data, 0), (a,), backward)


def sigmoid(a) -> Tensor:
    """Logistic function with outputs clamped into (0, 1).

    The clamp to [SIGMOID_MIN, 1 - SIGMOID_MIN] keeps log(s) and log(1-s)
    finite for saturated inputs, including in float32.
    """
    a = _wrap(a)
    x = a.data
    e = np.exp(-np.abs(x))  # never overflows
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = np.clip(s, SIGMOID_MIN, 1.0 - SIGMOID_MIN).astype(x.dtype)

    def backward(g):
        a._accumulate(g * s * (1.0 - s))

    return _from_op(s, (a,), backward)


def log(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        a._accumulate(g / a.data)

    return _from_op(np.log(a.data), (a,), backward)


def clip(a, lo=None, hi=None) -> Tensor:
    """Clamp values to [lo, hi]; the gradient passes inside the bounds."""
    a = _wrap(a)
    if lo is None and hi is None:
        raise ValueError("clip needs at least one bound")
    mask = np.ones(a.shape, dtype=bool)
    if lo is not None:
        mask &= a.data >= lo
    if hi is not None:
        mask &= a.data <= hi

    def backward(g):
        a._accumulate(g * mask)

    return _from_op(np.clip(a.data, lo, hi), (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        a._accumulate(s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _from_op(s, (a,), backward)


# -- convolution ----------------------------------------------------------------


def _same_pad(n: int, k: int, stride: int) -> tuple[int, int, int]:
    if stride == 1:
        return n, (k - 1) // 2, (k - 1) // 2
    n_out = -(-n // stride)
    total = max((n_out - 1) * stride + k - n, 0)
    return n_out, total // 2, total - total // 2


def _pad2d(arr: np.ndarray, pt: int, pb: int, pl: int, pr: int) -> np.ndarray:
    if pt == pb == pl == pr == 0:
        return arr
    h, w, c = arr.shape
    out = np.zeros((h + pt + pb, w + pl + pr, c), dtype=arr.dtype)
    out[pt : pt + h, pl : pl + w] = arr
    return out


def _tap(di: int, dj: int, h_out: int, w_out: int, stride: int) -> tuple[slice, slice]:
    """Rows and columns of the padded input that kernel tap (di, dj) reads."""
    return (
        slice(di, di + (h_out - 1) * stride + 1, stride),
        slice(dj, dj + (w_out - 1) * stride + 1, stride),
    )


def conv2d(x, w, b=None, stride: int = 1) -> Tensor:
    """Same-padded 2-D convolution of an H x W x Cin map with a k x k x Cin x Cout kernel.

    stride 1 preserves the spatial size; stride 2 halves it (the backbone's
    downsampling mode). Every kernel size and stride runs the same loop over
    the k*k taps: each tap is one matmul of a shifted, strided view of the
    zero-padded input with that tap's Cin x Cout weights, accumulated into the
    output. The backward pass walks the same taps once: each tap gives its
    slice of the weight gradient and scatter-adds its share of the input
    gradient into a padded buffer. The tape holds only the padded input,
    never a k*k times larger window copy.
    """
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 3:
        raise ValueError(f"conv2d input must be rank-3 HxWxC, got shape {x.shape}")
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ValueError(f"conv2d kernel must be k x k x Cin x Cout, got shape {w.shape}")
    k = w.shape[0]
    if k % 2 == 0:
        raise ValueError(f"conv2d kernel size must be odd, got {k}")
    if stride not in (1, 2):
        raise ValueError(f"conv2d stride must be 1 or 2, got {stride}")
    if x.shape[2] != w.shape[2]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[2]} channels, kernel expects {w.shape[2]}"
        )
    if b is not None:
        b = _wrap(b, w.dtype)
        if b.shape != (w.shape[3],):
            raise ValueError(f"conv2d bias must have shape ({w.shape[3]},), got {b.shape}")

    h, wd, cin = x.shape
    cout = w.shape[3]
    h_out, pt, pb = _same_pad(h, k, stride)
    w_out, pl, pr = _same_pad(wd, k, stride)
    xp = _pad2d(x.data, pt, pb, pl, pr)
    kernel = w.data
    taps = [(di, dj, _tap(di, dj, h_out, w_out, stride)) for di in range(k) for dj in range(k)]
    out_data = np.zeros((h_out, w_out, cout), dtype=np.result_type(xp, kernel))
    for di, dj, win in taps:
        out_data += xp[win] @ kernel[di, dj]
    if b is not None:
        out_data += b.data

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(h_out * w_out, cout)
        gw = np.empty_like(kernel) if w.requires_grad else None
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for di, dj, win in taps:
            if gw is not None:
                gw[di, dj] = xp[win].reshape(-1, cin).T @ g2
            if gxp is not None:
                gxp[win] += (g2 @ kernel[di, dj].T).reshape(h_out, w_out, cin)
        if gw is not None:
            w._accumulate(gw)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0))
        if gxp is not None:
            x._accumulate(gxp[pt : pt + h, pl : pl + wd])

    return _from_op(out_data, parents, backward)


# -- pooling --------------------------------------------------------------------


def upsample2x(a) -> Tensor:
    """Nearest-neighbor 2x spatial upsampling of an H x W x C map."""
    a = _wrap(a)
    if a.ndim != 3:
        raise ValueError(f"upsample2x needs a rank-3 HxWxC input, got shape {a.shape}")
    h, w, c = a.shape

    def backward(g):
        a._accumulate(g.reshape(h, 2, w, 2, c).sum(axis=(1, 3)))

    data = np.repeat(np.repeat(a.data, 2, axis=0), 2, axis=1)
    return _from_op(data, (a,), backward)


def channel_pool(a) -> Tensor:
    """Per-pixel channel mean and max, H x W x C -> H x W x 2.

    One sort over the channel axis gives both: the mean sums the sorted
    values, so it does not depend on how the channels happen to be laid out,
    and the max is the last sorted value. The max gradient goes to the first
    argmax.
    """
    a = _wrap(a)
    if a.ndim != 3:
        raise ValueError(f"channel_pool needs a rank-3 HxWxC input, got shape {a.shape}")
    c = a.shape[2]
    srt = np.sort(a.data, axis=2)
    data = np.empty(a.shape[:2] + (2,), dtype=a.dtype)
    data[:, :, 0] = srt.sum(axis=2) / c
    data[:, :, 1] = srt[:, :, -1]

    def backward(g):
        g_mean = g[:, :, :1] / c
        grad = np.repeat(g_mean, c, axis=2)
        idx = np.argmax(a.data, axis=2)[:, :, None]
        np.put_along_axis(grad, idx, g_mean + g[:, :, 1:], axis=2)
        a._accumulate(grad)

    return _from_op(data, (a,), backward)


def global_vertex_avg(a) -> Tensor:
    """Mean over graph vertexes (rows), a1 x a2 -> 1 x a2."""
    a = _wrap(a)
    if a.ndim != 2:
        raise ValueError(f"global_vertex_avg needs a rank-2 input, got shape {a.shape}")
    n = a.shape[0]

    def backward(g):
        a._accumulate(np.broadcast_to(g / n, a.shape))

    return _from_op(a.data.mean(axis=0, keepdims=True), (a,), backward)
