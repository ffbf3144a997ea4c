"""Acceptance gate, phase 1: the whole network's gradient against finite
differences, at 32 x 32 in double precision.

Each check moves the parameters along a direction d by a scalar leaf t,
params + t * d, and hands t to ``checks.gradcheck`` with its default
tolerances: the backward pass gives dL/dt = <dL/dparams, d>, central
differences of the loss give it numerically. The directions are 20 random
Gaussian ones over every parameter, plus one-hot directions at sampled
coordinates. The overfit run and the ablation ordering (phase 2) are not
implemented yet.
"""

import numpy as np
import pytest

from rrnet.checks import gradcheck
from rrnet.network import NetworkConfig, balanced_bce_loss, init_network_params, predict
from rrnet.tensor import Tensor

SIZE = 32
DIRECTIONS = 20
COORDINATES = 16

# A +-h step along a Gaussian direction moves every pre-activation at once.
# At h = 1e-5 and 1e-6 some backbone relus cross their kink within the step,
# and the central difference was off by up to 21% and 99% of the derivative;
# at h = 1e-7 it agrees with the analytic value to ~1e-8, and float64
# round-off of the loss stays ~1e-9.
STEP = 1e-7


def setup(pma, reasoning, seed=0):
    """Default widths at 32 px, float64. Biases start off zero: with zero
    biases, dead inputs give pre-activations of exactly 0, where a relu has
    no derivative and the central difference straddles the kink."""
    cfg = NetworkConfig(input_size=(SIZE, SIZE), pma=pma, reasoning=reasoning)
    rng = np.random.default_rng(seed)
    params = {name: t.data for name, t in init_network_params(cfg, rng, np.float64).items()}
    for arr in params.values():
        if arr.ndim == 1:
            arr[...] = rng.uniform(-0.1, 0.1, arr.shape)
    image = Tensor(rng.uniform(size=(SIZE, SIZE, 3)), dtype=np.float64)
    label = (rng.uniform(size=(SIZE, SIZE)) < 0.3).astype(np.float64)
    return cfg, params, image, label, rng


def check_along(cfg, params, image, label, moves):
    """gradcheck of the loss at params + sum_k t_k * moves[k], at t = 0, in
    every t_k; moves maps a check's name to {parameter name: direction}."""
    ts = {key: Tensor(np.zeros(1), requires_grad=True, dtype=np.float64) for key in moves}

    def loss_fn():
        moved = {}
        for name, arr in params.items():
            p = Tensor(arr)
            for key, t in ts.items():
                if name in moves[key]:
                    p = p + t * Tensor(moves[key][name])
            moved[name] = p
        return balanced_bce_loss(predict(image, moved, cfg).map, label)

    return gradcheck(loss_fn, list(ts.items()), h=STEP)


def sampled_coordinates(params, rng):
    """One entry of each of COORDINATES tensors drawn at random, and always
    one of head.c1.b, the entry an earlier kink showed up in."""
    names = sorted(params)
    picked = {"head.c1.b"} | set(rng.choice(names, size=COORDINATES - 1, replace=False).tolist())
    moves = {}
    for name in sorted(picked):
        onehot = np.zeros_like(params[name])
        i = int(rng.integers(onehot.size))
        onehot.flat[i] = 1.0
        moves[f"{name}[{i}]"] = {name: onehot}
    return moves


@pytest.mark.parametrize(
    "pma, reasoning", [("both", "srr+crr"), ("none", "srr+crr"), ("both", "nonlocal")]
)
def test_whole_network_gradient(pma, reasoning):
    cfg, params, image, label, rng = setup(pma, reasoning)
    for k in range(DIRECTIONS):
        direction = {name: rng.standard_normal(arr.shape) for name, arr in params.items()}
        res = check_along(cfg, params, image, label, {f"direction {k}": direction})
        assert res, res
    res = check_along(cfg, params, image, label, sampled_coordinates(params, rng))
    assert res, res
