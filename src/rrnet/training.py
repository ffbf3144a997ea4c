"""Deterministic training loop: ADAM over the class-balanced loss."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .dataio import AUGMENT_NAMES, Sample, dihedral_variant, resize_sample
from .network import NetworkConfig, balanced_bce_loss, init_network_params, predict  # bench/tracer.py wraps predict by name here
from .optim import Adam, LinearSchedule
from .tensor import NumericalError, Tensor, no_grad

__all__ = ["TrainSettings", "TrainResult", "train_model"]


@dataclass
class TrainSettings:
    iterations: int = 2000
    batch_size: int = 8
    lr_initial: float = 5e-5
    lr_final: float = 5e-7
    seed: int = 0
    augment: bool = True
    log_every: int = 100

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be at least 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be at least 1, got {self.log_every}")
        for name in ("lr_initial", "lr_final"):
            lr = getattr(self, name)
            if not (np.isfinite(lr) and lr >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {lr}")


@dataclass
class TrainResult:
    params: dict[str, Tensor]  # checkpoint name -> trained tensor
    log: list[tuple[int, float, float]] = field(default_factory=list)  # (iter, loss, lr)


def _batch_loss(batch: Iterable[Sample], params: dict[str, Tensor], cfg: NetworkConfig) -> float:
    total, count = 0.0, 0
    for sample in batch:
        image = Tensor(sample.image)
        pred = predict(image, params, cfg)
        loss = balanced_bce_loss(pred.map, sample.mask)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss on sample '{sample.id}'")
        if loss.requires_grad:
            loss.backward()
        del pred, loss  # free this sample's graph before the next forward
        total += value
        count += 1
    return total / count


def train_model(
    samples: list[Sample],
    cfg: NetworkConfig,
    settings: TrainSettings,
    log_fn=None,
) -> TrainResult:
    """Train from scratch on the given samples; fully determined by the seed.

    The pool is one (sample, variant name) pair per sample and `AUGMENT_NAMES`
    entry, sample-major, or one "orig" pair per sample without augmentation.
    A run holds each sample once: a batch builds the pairs it draws one at a
    time as it runs, each as `resize_sample(dihedral_variant(sample, name))`
    at the configured input size.
    Batch composition is drawn up front from the seed, and per-batch
    gradients accumulate in a fixed order, so identical invocations produce
    bit-identical parameters.
    """
    if not samples:
        raise ValueError("no training samples")
    ss = np.random.SeedSequence(settings.seed)
    seed_params, seed_batches = ss.spawn(2)

    names = AUGMENT_NAMES if settings.augment else ("orig",)
    pool = [(s, name) for s in samples for name in names]

    def draws(row) -> Iterator[Sample]:
        for j in row:
            sample, name = pool[j]
            yield resize_sample(dihedral_variant(sample, name), cfg.input_size)

    params = init_network_params(cfg, np.random.default_rng(seed_params))
    result = TrainResult(params=params)
    iters = settings.iterations
    if iters <= 0:
        return result

    schedule = LinearSchedule(settings.lr_initial, settings.lr_final, iters)
    adam = Adam(params, schedule)
    batch_rng = np.random.default_rng(seed_batches)
    indices = batch_rng.integers(0, len(pool), size=(iters, settings.batch_size))

    def emit(it: int, loss: float, lr: float) -> None:
        result.log.append((it, loss, lr))
        if log_fn is not None:
            log_fn(it, loss, lr)

    with no_grad():
        loss0 = _batch_loss(draws(indices[0]), params, cfg)
    emit(0, loss0, schedule.lr_at(1))

    for it in range(1, iters + 1):
        adam.zero_grad()
        loss = _batch_loss(draws(indices[it - 1]), params, cfg)
        lr = adam.step(grad_scale=1.0 / settings.batch_size)
        if it % settings.log_every == 0 or it == iters:
            emit(it, loss, lr)
    return result
