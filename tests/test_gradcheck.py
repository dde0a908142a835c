"""Finite-difference verification of the hand-derived gradients.

The oracle never touches the backward pass: it perturbs one parameter
entry at a time and recomputes the loss through the forward path only.
"""

import numpy as np
import pytest
from conftest import model_config, predict_stack

from ghreplay.dataset import INPUT_FIELDS, TARGET_FIELDS
from ghreplay.model import backward, init_model, mse_loss
from ghreplay.rng import SeededRng

FD_STEP = 1e-5
REL_TOL = 1e-4


def _loss_forward_only(params, x, t):
    total, _ = mse_loss(predict_stack(params, x), t)
    return total


def max_relative_gradient_error(seed, cfg=None, batch=3, steps=6):
    cfg = cfg or model_config(hidden_dim=4, dense_dim=4)
    params = init_model(cfg, SeededRng(seed))
    rng = SeededRng(seed + 1000)
    x = np.array(
        [
            [[rng.uniform(0, 1) for _ in range(len(INPUT_FIELDS))] for _ in range(steps)]
            for _ in range(batch)
        ]
    )
    t = np.array([[rng.uniform(0, 1) for _ in range(len(TARGET_FIELDS))] for _ in range(batch)])
    _, grads = backward(params, x, t)

    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = getattr(grads, name).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            up = _loss_forward_only(params, x, t)
            flat[idx] = orig - FD_STEP
            down = _loss_forward_only(params, x, t)
            flat[idx] = orig
            fd = (up - down) / (2.0 * FD_STEP)
            rel = abs(gflat[idx] - fd) / max(abs(gflat[idx]), abs(fd), 1e-8)
            worst = max(worst, rel)
    return worst


# at hidden 1 the bias gradient's batch sum is not np.sum's pairwise one
HIDDEN_1 = model_config(hidden_dim=1, dense_dim=4)


@pytest.mark.parametrize(
    "seed, cfg, batch, steps",
    [pytest.param(seed, None, 3, 6, id=str(seed)) for seed in range(5)]
    + [pytest.param(seed, HIDDEN_1, 9, 9, id=f"hidden1-{seed}") for seed in range(3)],
)
def test_bptt_matches_finite_differences(seed, cfg, batch, steps):
    assert max_relative_gradient_error(seed, cfg, batch, steps) < REL_TOL


def test_batch_gradient_is_mean_of_single_gradients():
    cfg = model_config(hidden_dim=4, dense_dim=4)
    params = init_model(cfg, SeededRng(123))
    rng = SeededRng(456)
    x = np.array(
        [[[rng.uniform(0, 1) for _ in range(5)] for _ in range(6)] for _ in range(2)]
    )
    t = np.array([[rng.uniform(0, 1) for _ in range(2)] for _ in range(2)])
    _, g_pair = backward(params, x, t)
    _, g_first = backward(params, x[:1], t[:1])
    _, g_second = backward(params, x[1:], t[1:])
    for name, arr in g_pair.items():
        mean = (getattr(g_first, name) + getattr(g_second, name)) / 2.0
        assert np.max(np.abs(arr - mean)) < 1e-10

