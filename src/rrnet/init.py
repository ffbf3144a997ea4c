"""Parameter initialization: Xavier-uniform weights, constant biases."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["xavier_uniform", "constant_init", "as_rng", "ZeroDraws"]


class ZeroDraws:
    """Stands in for a Generator whose every draw is zero. Constructors given
    one build a parameter tree's names and shapes without drawing a value,
    for a caller that overwrites every value, such as a checkpoint load."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, or an existing Generator or ZeroDraws as is.

    numpy.random is imported only when a seed must become a Generator."""
    if hasattr(seed, "uniform"):
        return seed
    return np.random.default_rng(seed)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:
        return shape[0], shape[1]
    # conv kernels k x k x Cin x Cout: fan counts include the receptive field
    receptive = int(np.prod(shape[:-2]))
    return shape[-2] * receptive, shape[-1] * receptive


def xavier_uniform(shape, seed, dtype=np.float32, requires_grad: bool = True) -> Tensor:
    """Uniform draw on +-sqrt(6 / (fan_in + fan_out)), deterministic per seed."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ValueError(f"xavier_uniform needs rank >= 2 to derive fans, got shape {shape}")
    rng = as_rng(seed)
    fan_in, fan_out = _fans(shape)
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    values = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(values, requires_grad=requires_grad)


def constant_init(shape, value: float = 0.0, dtype=np.float32, requires_grad: bool = True) -> Tensor:
    shape = tuple(int(s) for s in shape)
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=requires_grad)
