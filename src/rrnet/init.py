"""Parameter initialization: Xavier-uniform weights, zero biases."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["xavier_uniform", "init_params"]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:
        return shape[0], shape[1]
    # conv kernels k x k x Cin x Cout: fan counts include the receptive field
    receptive = int(np.prod(shape[:-2]))
    return shape[-2] * receptive, shape[-1] * receptive


def xavier_uniform(shape, seed, dtype=np.float32) -> Tensor:
    """A trainable uniform draw on +-sqrt(6 / (fan_in + fan_out)), deterministic per seed.

    seed is an int or a Generator, which is drawn from in place."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ValueError(f"xavier_uniform needs rank >= 2 to derive fans, got shape {shape}")
    rng = np.random.default_rng(seed)
    fan_in, fan_out = _fans(shape)
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    values = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(values, requires_grad=True)


def init_params(shapes: dict[str, tuple[int, ...]], seed, dtype=np.float32) -> dict[str, Tensor]:
    """One trainable tensor per entry of a {name: shape} table, drawn in table
    order from one generator: Xavier-uniform for rank 2 or more, zeros for
    rank 1. A zero entry draws nothing."""
    rng = np.random.default_rng(seed)
    out: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if len(shape) >= 2:
            out[name] = xavier_uniform(shape, rng, dtype)
        else:
            out[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
    return out
