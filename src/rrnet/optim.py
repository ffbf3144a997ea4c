"""ADAM optimizer with bias correction and a linear learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = ["LinearSchedule", "Adam"]

# the moment decay rates and the denominator's epsilon (Kingma & Ba 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class LinearSchedule:
    """Learning rate interpolated linearly from initial to final over total_steps.

    Step 1 uses the initial rate, step total_steps the final one; later steps
    stay at the final rate.
    """

    initial: float
    final: float
    total_steps: int

    def lr_at(self, step: int) -> float:
        if step < 1:
            raise ValueError(f"schedule steps are 1-based, got {step}")
        if self.total_steps <= 1:
            return self.initial
        t = min(step, self.total_steps)
        frac = (t - 1) / (self.total_steps - 1)
        return self.initial + (self.final - self.initial) * frac


class Adam:
    """Standard ADAM over a fixed, ordered dict of named parameters."""

    def __init__(self, params: dict[str, Tensor], schedule: LinearSchedule):
        self.params: list[tuple[str, Tensor]] = list(params.items())
        self.schedule = schedule
        self.step_count = 0
        self.first_moment = {name: np.zeros_like(p.data) for name, p in self.params}
        self.second_moment = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    # bench/tracer.py wraps Adam.step by name; bench/test_bench.py passes grad_scale by keyword
    def step(self, grad_scale: float | None = None) -> float:
        """Apply one update from the accumulated gradients; returns the lr used."""
        self.step_count += 1
        lr = self.schedule.lr_at(self.step_count)
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for name, p in self.params:
            g = p.grad
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter '{name}' shape {p.data.shape}"
                )
            if grad_scale is not None:
                g = g * grad_scale
            m = self.first_moment[name]
            v = self.second_moment[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + EPS)
        return lr
