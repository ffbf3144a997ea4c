"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: it covers exactly the operator set the
network needs (elementwise arithmetic, matmul, concatenation, reshapes,
same-padded convolution, the pooling variants and the two activations).
Both passes of a convolution read one zero-padded flat copy of its input,
made by one helper. The forward pass is one matmul per kernel tap over
shifted views of that copy. The backward pass lays the output gradient on the
flattened padded input, where each tap reads one evenly spaced run of rows:
the weight gradient of all taps is one matmul over a strided view of those
runs, and the input gradient adds one matmul per tap into a flat buffer of
the same layout. No tap copies its window, and neither pass builds a buffer
k*k times the size of its input.

Every op records a backward closure ``backward(g)`` on a per-forward tape;
``g`` is the gradient that reached the op's output. Calling ``backward()`` on
a scalar loss walks the tape once and frees it as it goes: as soon as a
node's closure has run, the node drops its closure, its gradient and its
links to its parents, so an activation's data is freed once its last
consumer has run, even while the caller still holds the loss. Only leaves
keep gradients. A second backward through any spent node is rejected before
any gradient moves. A closure never holds its own output, so a graph dropped
without a backward pass is freed by reference counting alone.

float32 is the working dtype for training and inference; all ops also run in
float64, which the finite-difference gradient checks rely on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    "take_rows",
]

# Sigmoid outputs are clamped into this open interval so downstream logs stay
# finite even in float32.
SIGMOID_MIN = 1e-7

_FLOAT_DTYPES = (np.float32, np.float64)


class NumericalError(RuntimeError):
    """A computation produced non-finite values (NaN/Inf)."""


_grad_enabled = True

# Stands in for the parents of a node whose closure has run, so the parents
# can be freed while a second backward through the node is still rejected.
_SPENT = object()


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
        """Accumulated gradient of a leaf; reads as zeros when nothing reached it.

        Only leaves keep gradients: ``backward`` frees a non-leaf's gradient
        once the non-leaf's closure has run, so reading ``grad`` on a tensor
        an op produced raises RuntimeError. The array may be shared with
        other tensors' gradients or be a read-only broadcast view, so treat
        it as read-only.
        """
        if self._prev:
            raise RuntimeError("only leaf tensors keep gradients")
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
        """Reverse-mode pass from a scalar loss through the recorded tape.

        Each node is released as soon as its closure has run; see the module
        docstring.
        """
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
            if node._prev is _SPENT:
                raise RuntimeError(
                    "graph already backpropagated; rerun the forward pass before calling backward() again"
                )
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node._grad)
                node._backward = None
                node._grad = None
                node._prev = _SPENT

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

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)


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
    if not -len(ref) <= axis < len(ref):
        raise ValueError(f"concat axis {axis} is out of range for rank {len(ref)}")
    axis %= len(ref)
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


def tensor_sum(a, axis=None) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _from_op(a.data.sum(axis=axis), (a,), backward)


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


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        a._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return _from_op(s, (a,), backward)


# -- convolution ----------------------------------------------------------------


def _same_pad(n: int, k: int, stride: int) -> tuple[int, int, int]:
    n_out = -(-n // stride)
    total = max((n_out - 1) * stride + k - n, 0)
    return n_out, total // 2, total - total // 2


def _tap(di: int, dj: int, h_out: int, w_out: int, stride: int) -> tuple[slice, slice]:
    """Rows and columns of the padded input that kernel tap (di, dj) reads."""
    return (
        slice(di, di + (h_out - 1) * stride + 1, stride),
        slice(dj, dj + (w_out - 1) * stride + 1, stride),
    )


def conv2d(x, w, b=None, stride: int = 1) -> Tensor:
    """Same-padded 2-D convolution of an H x W x Cin map with a k x k x Cin x Cout kernel.

    stride 1 preserves the spatial size; stride 2 halves it (the backbone's
    downsampling mode). Both passes read the input from the same layout: a
    zeroed flat buffer of ``rows`` rows of Cin values, whose first hp*wp rows
    are the hp x wp padded map, made by ``padded``. The forward pass runs the
    same loop over the k*k taps for every kernel size and stride: each tap is
    one matmul of a shifted, strided view of that padded map with the tap's
    Cin x Cout weights, accumulated into the output through one reused
    output-sized temporary.

    The backward pass lays the output gradient out at the padded input's
    width ``wp``: output pixel (i, j) becomes row ``p = i*wp + j`` of an
    ``(n, Cout)`` matrix ``gf``, which is zero in the columns past the map's
    right edge. Kernel tap (di, dj) reads that pixel's input from row
    ``off + stride*p`` of the flattened padded input, ``off = di*wp + dj``,
    so the windows of one tap are one evenly spaced run of rows. The weight
    gradient of all k*k taps is then one matmul over a read-only strided view
    of those runs, and each tap adds ``gf @ K[di, dj].T`` into its run of a
    flat padded input-gradient buffer. No tap copies a window. The tape keeps
    no array of its own, only references to the input and kernel tensors:
    the forward pass's padded copy is freed when conv2d returns, and
    backward pads the input again when it needs the weight gradient, that
    copy living only while the weight gradient is computed.
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
    hp, wp = h + pt + pb, wd + pl + pr
    # gf has one row per output pixel up to the last, then zero rows up to a
    # multiple of 32: OpenBLAS's threaded and single-threaded GEMM paths block
    # a reduction length alike only when it is a multiple of twice their
    # kernel unroll, and the weight gradient's bytes must not depend on the
    # BLAS thread count.
    n = -(-((h_out - 1) * wp + w_out) // 32) * 32
    # flat padded rows: the whole padded map, and the run of the last tap
    rows = max(hp * wp, (k - 1) * (wp + 1) + stride * (n - 1) + 1)
    offs = [di * wp + dj for di in range(k) for dj in range(k)]
    inner = (slice(pt, pt + h), slice(pl, pl + wd))

    def padded(fill=None):
        """A zeroed (rows, Cin) buffer, and its first hp*wp rows as the hp x wp x Cin
        padded map, with fill (the input) copied into the map's interior."""
        flat = np.zeros((rows, cin), dtype=x.dtype)
        grid = flat[: hp * wp].reshape(hp, wp, cin)
        if fill is not None:
            grid[inner] = fill
        return flat, grid

    def tap_windows():
        """The k x k x Cin x n read-only view of the runs of rows that the taps
        read from a flat padded copy of the input; the copy lives as long as the view."""
        flat, _ = padded(x.data)
        row, col = flat.strides
        return as_strided(flat, (k, k, cin, n), (wp * row, row, col, stride * row), writeable=False)

    _, xp = padded(x.data)  # no closure below holds it, so the tape keeps no padded copy
    taps = w.data.reshape(k * k, cin, cout)
    wins = [_tap(di, dj, h_out, w_out, stride) for di in range(k) for dj in range(k)]
    out_data = xp[wins[0]] @ taps[0]
    if k > 1:
        tmp = np.empty_like(out_data)
        for win, kt in zip(wins[1:], taps[1:]):
            out_data += np.matmul(xp[win], kt, out=tmp)
    if b is not None:
        out_data += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        gf = np.zeros((max(n, h_out * wp), cout), dtype=g.dtype)
        gf[: h_out * wp].reshape(h_out, wp, cout)[:, :w_out] = g
        gf = gf[:n]
        if w.requires_grad:
            w._accumulate(np.matmul(tap_windows(), gf))
        if b is not None and b.requires_grad:
            b._accumulate(g.reshape(-1, cout).sum(axis=0))
        if x.requires_grad:
            gxpf, gxp = padded()
            tmp = np.empty((n, cin), dtype=gf.dtype)
            for off, kt in zip(offs, taps):
                gxpf[off : off + stride * n : stride] += np.matmul(gf, kt.T, out=tmp)
            x._accumulate(gxp[inner])

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
    """Per-pixel channel mean and max: H x W x C -> H x W x 2, and
    H x W x G x C -> H x W x 2G for G groups of C channels pooled apart
    (group g's mean and max at channels 2g and 2g + 1).

    One sort over the channel axis gives both: the mean sums the sorted
    values, so it does not depend on how the channels happen to be laid out,
    and the max is the last sorted value. The max gradient goes to the first
    argmax.
    """
    a = _wrap(a)
    if a.ndim not in (3, 4):
        raise ValueError(f"channel_pool needs a rank-3 HxWxC or rank-4 HxWxGxC input, got shape {a.shape}")
    c = a.shape[-1]
    srt = np.sort(a.data, axis=-1)
    pooled = np.empty(a.shape[:-1] + (2,), dtype=a.dtype)
    pooled[..., 0] = srt.sum(axis=-1) / c
    pooled[..., 1] = srt[..., -1]
    shape = pooled.shape

    def backward(g):
        g = g.reshape(shape)
        g_mean = g[..., :1] / c
        grad = np.repeat(g_mean, c, axis=-1)
        idx = np.expand_dims(np.argmax(a.data, axis=-1), -1)
        np.put_along_axis(grad, idx, g_mean + g[..., 1:], axis=-1)
        a._accumulate(grad)

    return _from_op(pooled.reshape(a.shape[:2] + (-1,)), (a,), backward)
