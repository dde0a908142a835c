import copy
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import lstm_blocks, model_config, predict_stack

import ghreplay
from ghreplay import linalg, model
from ghreplay.dataset import INPUT_FIELDS, TARGET_FIELDS
from ghreplay.linalg import SIGMOID, TANH
from ghreplay.model import (
    AdamState,
    ModelConfig,
    ModelParams,
    adam_step,
    backward,
    clip_gradients,
    init_adam,
    init_model,
    mse_loss,
    predict_batch,
    zeros_params,
)
from ghreplay.model import _check_inputs, _forward
from ghreplay.rng import SeededRng


WINDOW = 6  # the window length of the small models' tests


def small_cfg(**kw):
    defaults = dict(hidden_dim=4, dense_dim=4)
    defaults.update(kw)
    return model_config(**defaults)


def random_windows(rng, batch, steps, dim=5):
    return np.array(
        [[[rng.uniform(0, 1) for _ in range(dim)] for _ in range(steps)] for _ in range(batch)]
    )


def random_targets(rng, batch, outputs=2):
    return np.array([[rng.uniform(0, 1) for _ in range(outputs)] for _ in range(batch)])


# --- initialization ---------------------------------------------------------

def test_init_biases():
    params = init_model(small_cfg(), SeededRng(0))
    _, _, b = lstm_blocks(params)
    assert np.array_equal(b[1], np.ones(4))
    for bias in (b[0], b[2], b[3], params.b1, params.b2):
        assert np.array_equal(bias, np.zeros_like(bias))


def test_init_shapes():
    cfg = model_config(hidden_dim=7, dense_dim=3)
    p = init_model(cfg, SeededRng(1))
    assert p.lstm.shape == (4 * 7, 5 + 7 + 1)
    w, u, b = lstm_blocks(p)
    assert w.shape == (4, 7, 5) and u.shape == (4, 7, 7) and b.shape == (4, 7)
    assert p.w1.shape == (3, 7) and p.b1.shape == (3,)
    assert p.w2.shape == (2, 3) and p.b2.shape == (2,)


def test_init_deterministic():
    a = init_model(small_cfg(), SeededRng(33))
    b = init_model(small_cfg(), SeededRng(33))
    for (_, arr_a), (_, arr_b) in zip(a.items(), b.items()):
        assert np.array_equal(arr_a, arr_b)


def glorot_limits(cfg):
    """(rows, cols, limit) of each Glorot matrix, in init_model's draw order."""
    h, d, dn, out = cfg.hidden_dim, len(INPUT_FIELDS), cfg.dense_dim, len(TARGET_FIELDS)
    shapes = [(h, d)] * 4 + [(h, h)] * 4 + [(dn, h), (out, dn)]
    return [(rows, cols, math.sqrt(6.0 / (rows + cols))) for rows, cols in shapes]


def glorot_matrices(params):
    w, u, _ = lstm_blocks(params)
    return [*w, *u, params.w1, params.w2]


@pytest.mark.parametrize("dims", [(1, 1), (4, 4), (7, 2)], ids=["1x1", "small", "uneven"])
def test_init_weights_within_glorot_bounds(dims):
    h, dn = dims
    cfg = model_config(hidden_dim=h, dense_dim=dn)
    for seed in range(10):  # a 1x1 matrix's limit is sqrt(6 / 2) = sqrt(3)
        params = init_model(cfg, SeededRng(seed))
        for matrix, (rows, cols, limit) in zip(glorot_matrices(params), glorot_limits(cfg)):
            assert matrix.shape == (rows, cols)
            assert (np.abs(matrix) <= limit).all()


def test_init_draws_glorot_in_row_major_fixed_order():
    # the scalar loop each matrix's block draw stands for, matrix by matrix
    cfg = model_config(hidden_dim=3, dense_dim=4)
    scalar = SeededRng(44)
    expected = [[scalar.uniform(-limit, limit) for _ in range(rows * cols)]
                for rows, cols, limit in glorot_limits(cfg)]
    block = SeededRng(44)
    params = init_model(cfg, block)
    assert [m.ravel().tolist() for m in glorot_matrices(params)] == expected
    assert block.get_state() == scalar.get_state()


def test_init_glorot_mean_within_three_sigma():
    cfg = model_config(hidden_dim=100)
    u = lstm_blocks(init_model(cfg, SeededRng(4)))[1][0]  # 100 x 100
    limit = math.sqrt(6.0 / 200)
    sigma_mean = limit / math.sqrt(3.0 * u.size)
    assert abs(u.mean()) < 3.0 * sigma_mean


def test_init_rejects_bad_shape_before_drawing():
    rng = SeededRng(0)
    with pytest.raises(ValueError, match="hidden_dim"):
        init_model(model_config(hidden_dim=0), rng)
    assert rng.get_state() == SeededRng(0).get_state()


def test_config_validation():
    for kwargs, message in [
        ({"hidden_dim": 0}, "ModelConfig.hidden_dim: 0 is less than the minimum of 1"),
        ({"learning_rate": 0.0},
         "ModelConfig.learning_rate: 0.0 is less than or equal to the minimum of 0"),
        ({"hidden_dim": 4.0}, "ModelConfig.hidden_dim: 4.0 is not of type 'integer'"),
        ({"dense_dim": np.int64(5)}, "ModelConfig.dense_dim: .* is not of type 'integer'"),
    ]:
        with pytest.raises(ValueError, match=message):
            model_config(**kwargs)
    # Adam runs at its published constants, which are not settings; the CSV
    # columns fix the widths, and the window length is the memory's
    for name, value in [("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_epsilon", 1e-8),
                        ("input_dim", 5), ("output_dim", 2), ("window_len", 250)]:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            ModelConfig(**{name: value})


# --- forward pass, one window at a time -------------------------------------

def test_forward_all_zero_params_outputs_exact_zero():
    cfg = small_cfg()
    params = zeros_params(cfg)
    rng = SeededRng(2)
    pred = predict_stack(params, random_windows(rng, 1, WINDOW))
    assert np.array_equal(pred, np.zeros((1, 2)))


def test_forward_scalar_hand_computation():
    # hidden 1, dense 1, window 1: the whole network in plain floats
    cfg = model_config(hidden_dim=1, dense_dim=1)
    p = zeros_params(cfg)
    w, u, b = lstm_blocks(p)
    w[:, 0, :2] = [[0.3, -0.1], [-0.2, 0.4], [0.5, 0.2], [0.7, -0.6]]  # gates i, f, o, g
    u[0] = 0.11  # unused at t=0 (h0 = 0) but set to catch misuse
    b[:, 0] = [0.1, 1.0, -0.3, 0.2]
    p.w1[:] = 0.9
    p.b1[:] = 0.05
    p.w2[:] = [[-1.1], [0.8]]
    p.b2[:] = [0.4, -0.6]

    x = [0.6, -0.4, 0.0, 0.0, 0.0]  # the last three inputs meet zero weights

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    i = sig(0.3 * x[0] - 0.1 * x[1] + 0.1)
    f = sig(-0.2 * x[0] + 0.4 * x[1] + 1.0)
    o = sig(0.5 * x[0] + 0.2 * x[1] - 0.3)
    g = math.tanh(0.7 * x[0] - 0.6 * x[1] + 0.2)
    c = i * g  # c0 = 0, so the forget branch vanishes
    h = o * math.tanh(c)
    d = math.tanh(0.9 * h + 0.05)
    expected = np.array([-1.1 * d + 0.4, 0.8 * d - 0.6])

    pred = predict_stack(p, np.array([[x]]))[0]
    assert np.max(np.abs(pred - expected)) < 1e-12
    assert f == pytest.approx(sig(-0.2 * 0.6 + 0.4 * -0.4 + 1.0))  # sanity on the oracle itself


def test_forward_protocol_scale_window_shape():
    cfg = model_config()  # the paper preset: hidden 32, dense 32; windows of 250
    params = init_model(cfg, SeededRng(3))
    window = random_windows(SeededRng(4), 1, 250)
    pred = predict_stack(params, window)
    assert pred.shape == (1, 2)


def test_forward_deterministic_and_stateless():
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(5))
    window = random_windows(SeededRng(6), 1, WINDOW)
    first = predict_stack(params, window)
    second = predict_stack(params, window)
    assert np.array_equal(first, second)


def test_forward_shape_errors():
    params = init_model(small_cfg(), SeededRng(7))
    with pytest.raises(ValueError, match="input_dim"):
        predict_stack(params, np.zeros((1, 6, 3)))
    with pytest.raises(ValueError, match=r"expected a series of shape \(records, input_dim\)"):
        predict_batch(params, [5], np.zeros((1, 6, 5)), 6)
    with pytest.raises(ValueError, match=r"expected windows of shape \(batch, window_len, input_dim\)"):
        backward(params, np.zeros((6, 5)), np.zeros((6, 2)))
    with pytest.raises(ValueError, match=r"window rows must lie in \[5, 6\)"):
        predict_batch(params, [4], np.zeros((6, 5)), 6)


# --- mse --------------------------------------------------------------------

def test_mse_exact_fit_is_zero():
    t = np.array([[0.3, 0.7], [0.1, 0.9]])
    total, per = mse_loss(t.copy(), t)
    assert total == 0.0 and np.array_equal(per, np.zeros(2))


def test_mse_single_sample_unit_errors():
    total, per = mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert total == 1.0
    assert np.array_equal(per, np.ones(2))


def test_mse_quarter():
    total, _ = mse_loss(np.array([[0.5, 0.5]]), np.array([[0.0, 1.0]]))
    assert total == 0.25


def test_mse_total_is_mean_of_per_output_exactly():
    rng = SeededRng(8)
    preds = random_targets(rng, 17)
    targets = random_targets(rng, 17)
    total, per = mse_loss(preds, targets)
    assert total == (per[0] + per[1]) / 2.0


def test_mse_overflow_raises_non_finite_naming_rows():
    # under the suite's RuntimeWarning filter an overflow warning would fail first
    predictions = np.array([[0.5, 0.5], [1e200, 0.5], [0.5, -1e154]])
    with pytest.raises(model.NonFiniteError,
                       match=r"^squared errors or their mean contain non-finite values "
                             r"in batch rows \[1\]$") as err:
        mse_loss(predictions, np.zeros((3, 2)))
    assert err.value.rows.tolist() == [1]
    # finite squared errors whose mean overflows name no row
    with pytest.raises(model.NonFiniteError) as err:
        mse_loss(np.full((2, 2), 1e154), np.zeros((2, 2)))
    assert err.value.rows.tolist() == []


def test_mse_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))


# --- predict_batch ----------------------------------------------------------

def test_predict_batch_of_one_equals_forward():
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(9))
    windows = random_windows(SeededRng(10), 1, WINDOW)
    training, _ = _forward(params, windows, keep_cache=True)
    assert np.array_equal(predict_stack(params, windows), training)


def test_predict_batch_permutation_equivariant():
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(11))
    windows = random_windows(SeededRng(12), 8, WINDOW)
    perm = [3, 1, 7, 0, 6, 2, 5, 4]
    direct = predict_stack(params, windows)
    permuted = predict_stack(params, windows[perm])
    assert np.array_equal(permuted, direct[perm])


def test_predict_batch_matches_individual_forwards(monkeypatch):
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(13))
    windows = random_windows(SeededRng(14), 100, WINDOW)
    monkeypatch.setattr(model, "CHUNK", 32)
    batched = predict_stack(params, windows)
    for b in range(100):
        single = predict_stack(params, windows[b : b + 1])[0]
        assert np.max(np.abs(batched[b] - single)) < 1e-12


# --- backward / adam --------------------------------------------------------

def test_gradients_zero_at_exact_fit():
    cfg = small_cfg()
    params = zeros_params(cfg)
    params.b2[:] = [0.25, 0.75]
    x = random_windows(SeededRng(15), 3, WINDOW)
    t = np.tile([0.25, 0.75], (3, 1))
    loss, grads = backward(params, x, t)
    assert loss == 0.0
    for _, g in grads.items():
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_reports_divergence_with_origin():
    cfg = small_cfg()
    params = zeros_params(cfg)
    params.w1[:] = 1e308  # blows up the dense layer input scale
    params.w2[:] = 1e308
    params.b2[:] = 1e308
    x = random_windows(SeededRng(16), 2, WINDOW)
    t = random_targets(SeededRng(17), 2)
    with np.errstate(over="ignore"), pytest.raises(model.NonFiniteError):
        backward(params, x, t)


def test_backward_keeps_four_cache_blocks():
    cfg = model_config(hidden_dim=16, dense_dim=16)
    params = init_model(cfg, SeededRng(36))
    rng = np.random.default_rng(37)
    inputs = rng.uniform(0.0, 1.0, (64, 100, 5))
    targets = rng.uniform(0.0, 1.0, (64, 2))
    block = 100 * 64 * 16 * 8  # one (T, B, H) float64 array
    tracemalloc.start()
    try:
        backward(params, inputs, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the four gates, then (B, H) arrays: 10 segment ends, one segment's
    # recomputed states and the scratch buffers (measured 4.45 blocks);
    # halfway to five leaves room for numpy's scratch and still fails if
    # a fifth block, such as every step's cell state, comes back
    assert peak < 4.75 * block


def test_backward_replays_gates_in_bounded_memory_at_paper_shape():
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(38))
    rng = np.random.default_rng(39)
    inputs = rng.uniform(0.0, 1.0, (200, 250, 5))
    targets = rng.uniform(0.0, 1.0, (200, 2))
    tracemalloc.start()
    try:
        backward(params, inputs, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every step's gates would be 51.2 MB (a 54.0 MB peak); replayed, one
    # 16-step segment's gates (3.3 MB), the segment-end c and h, one
    # segment's cell states and the scratch buffers measured 7.6 MB
    assert peak < 12e6


def test_predict_batch_step_scratch_is_bounded(monkeypatch):
    # one CPU, one 512-window chunk at paper shape
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(25))
    series = np.random.default_rng(26).uniform(0.0, 1.0, (250 + 511, 5))
    gather = 512 * 250 * 5 * 8  # the chunk's step-major windows
    index = 512 * 250 * 8       # the gather's row index
    block = 32 * 512 * 8        # one (H, B) array
    tracemalloc.start()
    try:
        predict_batch(params, np.arange(249, 249 + 512), series, 250)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the gates, c, the operand and one (3, H, B) scratch block measured
    # 6.70 MB in all; an eight-block scratch (7.35 MB) fails here
    assert peak < gather + index + 6 * block


# ±0, the smallest subnormal, a tiny normal, and about where exp(-|x|) drops
# below half an ulp of 1, where exp(x) overflows and where exp(-|x|) underflows
SIGMOID_EDGES = [0.0, 5e-324, 1e-300, 36.7, 709.0, 745.0, 746.0, 1e308]


def branch_sigmoid(x):
    """The sigmoid's former branch form, kept as a drift oracle: exp() only
    ever sees non-positive arguments, so 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_inplace_bit_identical_to_linalg_at_edges():
    # the kernel's sigmoid writes its result into its own input; in a
    # (3, H, B) view of a (4, H, B) gate block, as the step runs it
    values = np.array([sign * v for v in SIGMOID_EDGES for sign in (1.0, -1.0)])
    z = np.empty((4, 5, 7))
    z[:3] = np.resize(values, (3, 5, 7))  # every edge in every gate
    z[3] = 0.25
    expected = linalg.activation(SIGMOID, z[:3])
    branch = branch_sigmoid(z[:3])
    with np.errstate(over="ignore"):  # exp(746) and exp(1e308) overflow, as in the step loop
        model._sigmoid_inplace(z[:3], np.empty((3, 5, 7)))
    assert np.array_equal(z[:3].view(np.int64), expected.view(np.int64))
    assert (z[3] == 0.25).all()
    # the branch form's bits but at -745, where it gives the smallest
    # subnormal and the kernel 0: within one ulp at every edge
    assert np.array_equal(np.unique(np.abs(z[:3] - branch)), [0.0, 5e-324])


def test_adam_zero_gradients_leave_params_unchanged():
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(18))
    before = copy.deepcopy(params)
    adam = init_adam(cfg)
    adam_step(params, zeros_params(cfg), adam, cfg)
    for (_, a), (_, b) in zip(params.items(), before.items()):
        assert np.array_equal(a, b)
    assert adam.t == 1


def test_adam_zero_learning_rate_leaves_params_unchanged():
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(19))
    cfg.learning_rate = 0.0  # after init; adam_step itself must be inert
    before = copy.deepcopy(params)
    grads = zeros_params(cfg)
    w, _, _ = lstm_blocks(grads)
    w[0] = 1.0
    adam_step(params, grads, init_adam(cfg), cfg)
    for (_, a), (_, b) in zip(params.items(), before.items()):
        assert np.array_equal(a, b)


def test_adam_first_step_is_signed_learning_rate():
    cfg = small_cfg(learning_rate=1e-3)
    params = zeros_params(cfg)
    grads = zeros_params(cfg)
    for _, g in grads.items():
        g[:] = 0.5
    adam_step(params, grads, init_adam(cfg), cfg)
    # first step: m_hat/sqrt(v_hat) = g/|g| = 1, so each entry moves by ~ -lr
    for _, p in params.items():
        assert np.max(np.abs(p + cfg.learning_rate)) < cfg.learning_rate * 1e-6


def test_overfit_tiny_batch():
    cfg = model_config(hidden_dim=8, dense_dim=8, learning_rate=1e-2)
    params = init_model(cfg, SeededRng(20))
    adam = init_adam(cfg)
    rng = SeededRng(21)
    x = random_windows(rng, 4, WINDOW)
    t = random_targets(rng, 4)
    losses = []
    for _ in range(200):
        loss, grads = backward(params, x, t)
        adam_step(params, grads, adam, cfg)
        losses.append(loss)
    assert losses[-1] < 1e-3
    # Adam oscillates slightly near the optimum, so monotonicity is asserted
    # against the starting loss rather than step to step
    assert max(losses[1:]) < losses[0]
    assert losses[-1] < losses[0] * 1e-3


def test_clip_gradients_scales_to_max_norm():
    cfg = small_cfg()
    grads = zeros_params(cfg)
    w, _, _ = lstm_blocks(grads)
    w[0] = 3.0
    norm = clip_gradients(grads, 1.0)
    assert norm > 1.0
    total = sum(float(np.sum(g * g)) for _, g in grads.items())
    assert total ** 0.5 == pytest.approx(1.0, rel=1e-12)


# --- kernel boundary checks -------------------------------------------------

def _poison_windows(params, x):
    x[1, 3, 2] = np.nan


def _poison_u_f(params, x):
    _, u, _ = lstm_blocks(params)
    u[1, 2, 1] = np.nan


def _poison_b_g(params, x):
    _, _, b = lstm_blocks(params)
    b[3, 0] = np.inf


def _overflow_w_i(params, x):
    w, _, _ = lstm_blocks(params)
    w[0] = 1e308
    x[:] = 1.0


def _poison_b2(params, x):
    params.b2[0] = np.inf


@pytest.mark.parametrize(
    "poison", [_poison_windows, _poison_u_f, _poison_b_g, _overflow_w_i, _poison_b2],
    ids=["nan-window", "nan-u_f", "inf-b_g", "overflow-w_i", "inf-b2"],
)
@pytest.mark.parametrize("entry", ["predict_batch", "backward"])
def test_kernel_rejects_non_finite_values(poison, entry):
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(22))
    x = random_windows(SeededRng(23), 3, WINDOW)
    poison(params, x)
    with pytest.raises(model.NonFiniteError, match="non-finite") as err:
        if entry == "predict_batch":
            predict_stack(params, x)
        else:
            backward(params, x, random_targets(SeededRng(24), 3))
    if poison is _poison_b2:
        # both entry points check the outputs after the bias in the one forward pass
        assert str(err.value) == "output layer contains non-finite values in batch rows [0, 1, 2]"
        assert err.value.rows.tolist() == [0, 1, 2]


def assert_gate_overflow_at_step_4_in_row_2(monkeypatch, entry, params, x):
    """``entry`` on the windows x must fail at step 4 naming batch row 2
    alone, through a helper thread's chunk or in ``backward``."""
    threads = set()

    def recording_forward(*args, **kwargs):
        threads.add(threading.get_ident())
        return _forward(*args, **kwargs)

    monkeypatch.setattr(model, "_forward", recording_forward)
    if entry == "predict_batch-helper":
        # chunks of 2 windows on 2 CPUs: window 2 is the helper thread's chunk
        monkeypatch.setattr(model, "CHUNK", 2)
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    elif entry == "backward-replayed":
        monkeypatch.setattr(model, "GATE_CACHE_BYTES", 0)
    with pytest.raises(model.NonFiniteError) as err:
        if entry == "predict_batch-helper":
            predict_stack(params, x)
        else:
            backward(params, x, random_targets(SeededRng(24), 3))
    assert str(err.value) == "LSTM step 4: gate pre-activation contains non-finite values in batch rows [2]"
    assert err.value.rows.tolist() == [2]
    assert len(threads) == (2 if entry == "predict_batch-helper" else 1)


OVERFLOW_ENTRIES = ["predict_batch-helper", "backward-kept", "backward-replayed"]


@pytest.mark.parametrize("entry", OVERFLOW_ENTRIES)
def test_gate_overflow_names_its_row_and_step(monkeypatch, entry):
    # one window, not the first, overflows its gate products at a later step;
    # the hidden-major (4, H, B) gates still name that batch row alone
    params = init_model(small_cfg(), SeededRng(22))
    x = random_windows(SeededRng(23), 3, WINDOW)
    x[2, 4, :] = 1e308
    assert_gate_overflow_at_step_4_in_row_2(monkeypatch, entry, params, x)


# --- the once-per-call bound on the gate pre-activations --------------------
#
# |h| <= 1 and the operand's last row is 1, so with bounded windows and
# weights no gate pre-activation can overflow and no step checks its gates;
# past the bound every step does, and errors and bits stay as they were.

ENTRIES = ["predict_batch", "backward-kept", "backward-replayed"]


def recorded_checks(monkeypatch):
    """The list that collects the check flag of every kernel step from here on."""
    checks = []
    stepper = model._stepper

    def recording_stepper(params, batch):
        step, h = stepper(params, batch)

        def recording_step(x_t, c_prev, c, z, check=True):
            checks.append(check)
            return step(x_t, c_prev, c, z, check)

        return recording_step, h

    monkeypatch.setattr(model, "_stepper", recording_stepper)
    return checks


def run_entry(monkeypatch, entry, params, x):
    """Predictions, or gradients asserted bit-identical to the reference's."""
    if entry == "predict_batch":
        return predict_stack(params, x)
    if entry == "backward-replayed":
        monkeypatch.setattr(model, "GATE_CACHE_BYTES", 0)
    return assert_same_gradients(params, x, random_targets(SeededRng(24), len(x)))


@pytest.mark.parametrize("entry", ENTRIES)
def test_bounded_weights_and_windows_check_no_step(monkeypatch, entry):
    checks = recorded_checks(monkeypatch)
    params = init_model(small_cfg(), SeededRng(22))
    run_entry(monkeypatch, entry, params, random_windows(SeededRng(23), 3, WINDOW))
    # the forward's steps, then a replay's, which never checks
    assert checks == [False] * (WINDOW if entry != "backward-replayed" else 2 * WINDOW)


@pytest.mark.parametrize("entry", ENTRIES)
def test_finite_weight_past_the_bound_checks_every_step_and_keeps_its_bits(monkeypatch, entry):
    checks = recorded_checks(monkeypatch)
    params = init_model(small_cfg(), SeededRng(22))
    lstm_blocks(params)[0][1, 0, 0] = -1e299  # unit 0's forget gate at 0; nothing overflows
    x = random_windows(SeededRng(23), 3, WINDOW)
    outputs = run_entry(monkeypatch, entry, params, x)
    if entry == "predict_batch":
        assert np.array_equal(outputs, reference_forward(params, x)[0])
    assert checks[:WINDOW] == [True] * WINDOW


@pytest.mark.parametrize("entry", OVERFLOW_ENTRIES)
def test_finite_weight_overflow_names_its_row_and_step(monkeypatch, entry):
    # input 0's weights of gate i pass the bound; only window 2's input 0 at
    # step 4, the one value above 1, makes their product overflow
    params = init_model(small_cfg(), SeededRng(22))
    lstm_blocks(params)[0][0, :, 0] = 1e308
    x = random_windows(SeededRng(23), 3, WINDOW)
    x[2, 4, 0] = 2.0
    assert_gate_overflow_at_step_4_in_row_2(monkeypatch, entry, params, x)


def non_finite_error(entry, params, x):
    """The NonFiniteError that ``entry``, predict_batch or backward, raises on the windows x."""
    with pytest.raises(model.NonFiniteError) as err:
        if entry == "predict_batch":
            predict_stack(params, x)
        else:
            backward(params, x, random_targets(SeededRng(24), len(x)))
    return err.value


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("block", [0, 1, 2], ids=["w", "u", "b"])
@pytest.mark.parametrize("entry", ["predict_batch", "backward"])
def test_non_finite_weight_fails_at_step_0(value, block, entry):
    # unit 2 of the forget gate: its input weights, its recurrent weights
    # (times the zero h of step 0) or its bias make every row's product non-finite
    params = init_model(small_cfg(), SeededRng(22))
    lstm_blocks(params)[block][1, 2] = value
    err = non_finite_error(entry, params, random_windows(SeededRng(23), 3, WINDOW))
    assert str(err) == "LSTM step 0: gate pre-activation contains non-finite values in batch rows [0, 1, 2]"
    assert err.rows.tolist() == [0, 1, 2]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["predict_batch", "backward"])
def test_non_finite_window_value_names_its_row(value, entry):
    params = init_model(small_cfg(), SeededRng(22))
    x = random_windows(SeededRng(23), 3, WINDOW)
    x[1, 3, 2] = value
    err = non_finite_error(entry, params, x)
    assert str(err) == "windows contain non-finite values in batch rows [1]"
    assert err.rows.tolist() == [1]


@pytest.mark.parametrize("entry", ["predict_batch", "backward-kept-desk", "backward-replayed-paper"])
def test_sigmoid_overflow_is_silent(entry):
    # input 0's weights scaled up: sigmoid pre-activations far below -710,
    # where exp(-x) overflows to inf and the gate is 0
    hidden, steps = (32, 250) if entry.endswith("paper") else (16, 50)
    params = init_model(model_config(hidden_dim=hidden, dense_dim=hidden), SeededRng(30))
    lstm_blocks(params)[0][:, :, 0] *= 1e4
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, (200, steps, 5))
    pre = params.lstm[: 3 * hidden] @ step_operand(x[:, 0, :], np.zeros((hidden, 200)))
    assert pre.min() < -710
    if entry != "predict_batch":
        assert (4 * steps * hidden * 200 * 8 <= model.GATE_CACHE_BYTES) == entry.endswith("desk")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if entry == "predict_batch":
            assert np.isfinite(predict_stack(params, x)).all()
        else:
            loss, grads = backward(params, x, rng.uniform(0.0, 1.0, (200, 2)))
            assert math.isfinite(loss)
            for name, grad in grads.items():
                assert np.isfinite(grad).all(), name


def test_predict_batch_names_rows_of_later_chunks():
    params = init_model(small_cfg(), SeededRng(22))
    x = np.random.default_rng(23).uniform(0.0, 1.0, (700, 6, 5))
    x[[600, 650], 2, 1] = np.nan  # both in the second 512-window chunk
    with pytest.raises(model.NonFiniteError, match=r"^windows contain non-finite values in batch rows \[600, 650\]$") as err:
        predict_stack(params, x)
    assert err.value.rows.tolist() == [600, 650]


def test_predict_batch_rejects_empty_batch():
    params = init_model(small_cfg(), SeededRng(29))
    with pytest.raises(ValueError, match="predict_batch: empty batch"):
        predict_stack(params, np.zeros((0, 6, 5)))


def test_predict_batch_rejects_float_rows():
    # 4.9 used to be truncated to row 4 without a word
    params = init_model(small_cfg(), SeededRng(29))
    with pytest.raises(ValueError, match="^predict_batch rows must be integers, got dtype float64$"):
        predict_batch(params, [4.9], np.zeros((8, 5)), 3)


def test_predict_batch_rejects_a_window_len_below_one():
    # a window of 0 records used to fail inside numpy's maximum of a zero-size array
    params = init_model(small_cfg(), SeededRng(29))
    with pytest.raises(ValueError, match="^window rows: window_len must be at least 1, got 0$"):
        predict_batch(params, [4], np.zeros((8, 5)), 0)


def test_backward_on_nested_lists_equals_backward_on_the_array():
    params = init_model(small_cfg(), SeededRng(30))
    gen = np.random.default_rng(31)
    x, t = gen.uniform(0.0, 1.0, (3, 6, 5)), gen.uniform(0.0, 1.0, (3, 2))
    loss, grads = backward(params, x, t)
    list_loss, list_grads = backward(params, x.tolist(), t.tolist())
    assert list_loss == loss
    for (name, grad), (_, list_grad) in zip(grads.items(), list_grads.items()):
        assert list_grad.tobytes() == grad.tobytes(), name


def test_backward_rejects_empty_batch():
    params = init_model(small_cfg(), SeededRng(32))
    with pytest.raises(ValueError, match="backward: empty batch"):
        backward(params, np.zeros((0, 6, 5)), np.zeros((0, 2)))


# --- chunks spread over CPUs ------------------------------------------------

@pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
def test_usable_cpus_falls_back_to_cpu_count_without_affinity(monkeypatch, count, expected):
    # where the platform has no affinity mask every CPU counts; cpu_count may not know them
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert model._usable_cpus() == expected


def test_predict_batch_bit_identical_for_any_cpu_count(monkeypatch):
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(30))
    windows = np.random.default_rng(31).uniform(0.0, 1.0, (1100, 250, 5))  # last chunk ragged
    expected = np.concatenate(
        [reference_forward(params, windows[s : s + 512])[0] for s in (0, 512, 1024)]
    )
    threads = set()

    def recording_forward(*args, **kwargs):
        threads.add(threading.get_ident())
        return _forward(*args, **kwargs)

    monkeypatch.setattr(model, "_forward", recording_forward)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        threads.clear()
        assert np.array_equal(predict_stack(params, windows), expected), cpus
        assert len(threads) == cpus


@pytest.mark.parametrize("bad_chunks", [[1], [2], [1, 2]],
                         ids=["helper-chunk", "last-chunk", "two-chunks"])
def test_predict_batch_threads_raise_non_finite(monkeypatch, bad_chunks):
    # the error names the lowest failing chunk's rows whatever the CPU count
    cfg = small_cfg()
    params = init_model(cfg, SeededRng(32))
    windows = np.random.default_rng(33).uniform(0.0, 1.0, (1100, WINDOW, 5))
    for chunk in bad_chunks:
        windows[512 * chunk + 3, 2, 1] = np.nan
    for cpus in (1, 2, 3):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        with pytest.raises(model.NonFiniteError) as err:
            predict_stack(params, windows)
        assert err.value.rows.tolist() == [512 * bad_chunks[0] + 3], cpus
        assert str(err.value) == (f"windows contain non-finite values in batch rows "
                                  f"[{512 * bad_chunks[0] + 3}]"), cpus


def python_with_blas_threads(preset, code):
    """Run ``code`` in a fresh interpreter whose OPENBLAS_NUM_THREADS is
    ``preset`` (None: unset)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(preset, expected):
    # the root imports nothing of its own, so the pin always precedes numpy
    code = ("import os, sys, ghreplay; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ghreplay.')))")
    out = python_with_blas_threads(preset, code)
    assert out.stdout.splitlines() == [expected, "[]"]


def test_version_is_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert ghreplay.__version__ == tomllib.load(fh)["project"]["version"]


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
@pytest.mark.parametrize("order", ["ghreplay, numpy", "numpy, ghreplay"],
                         ids=["ghreplay-first", "numpy-first"])
def test_import_after_numpy_warns_when_unset(order, preset):
    # numpy reads the variable as it loads, so only then is the pin too late
    out = python_with_blas_threads(preset, f"import {order}")
    warned = "RuntimeWarning" in out.stderr and "set OPENBLAS_NUM_THREADS=1" in out.stderr
    assert warned == (order == "numpy, ghreplay" and preset is None), out.stderr


def test_cli_import_leaves_linalg_unloaded():
    # linalg is the tests' checked reference; no module of the package imports it
    out = python_with_blas_threads("1", "import ghreplay.cli, sys; print('ghreplay.linalg' in sys.modules)")
    assert out.stdout.strip() == "False"


# --- bit-identity against the reference loops -------------------------------

GATES = "ifog"


def step_operand(x_t, h):
    """[x_t; h; 1]: the (D + H + 1, B) right factor of a step's gate product."""
    return np.concatenate((x_t.T, h, np.ones((1, h.shape[1]))))


def sigmoid_grad(y):
    """The sigmoid's derivative in terms of its output y."""
    return y * (1.0 - y)


def tanh_grad(y):
    """The tanh's derivative in terms of its output y."""
    return 1.0 - y * y


def linalg_sigmoid(x):
    return linalg.activation(SIGMOID, x)


def reference_forward(params, inputs, sigmoid=linalg_sigmoid):
    """The LSTM forward pass against the checked linalg helpers: the four
    gate pre-activations as one product [w | u | b] @ [x_t; h; 1], then the
    activations and the cell recurrence gate by gate, hidden-major (H, B).
    With linalg's sigmoid, the kernel must reproduce its every bit."""
    batch, steps, _ = inputs.shape
    hidden = params.lstm.shape[0] // 4
    cache = {name: np.empty((steps, hidden, batch)) for name in ("i", "f", "o", "g", "c", "tc", "h")}
    h = np.zeros((hidden, batch))
    c = np.zeros((hidden, batch))
    for t in range(steps):
        pre = linalg.matmul(params.lstm, step_operand(inputs[:, t, :], h)).reshape(4, hidden, batch)
        i, f, o = (sigmoid(a) for a in pre[:3])
        g = linalg.activation(TANH, pre[3])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        for name, value in (("i", i), ("f", f), ("o", o), ("g", g), ("c", c), ("tc", tc), ("h", h)):
            cache[name][t] = value
    dense = linalg.activation(TANH, linalg.matmul(h.T, params.w1.T) + params.b1)
    cache["dense"] = dense
    return linalg.matmul(dense, params.w2.T) + params.b2, cache


def reference_backward(params, inputs, targets, sigmoid=linalg_sigmoid):
    """Loss and gradients on sigmoid_grad and tanh_grad, the gate deltas written
    gate by gate and stacked into (4H, B) for the kernel's two products per
    step: deltas @ [x_t; h_prev; 1]^T, the gradient of [w | u | b], and the
    stacked recurrent weights transposed @ deltas, dh. Returned as one array
    per gate (``w_i`` ... ``b_g``) plus the head's: backward must reproduce
    their every bit."""
    outputs, cache = reference_forward(params, inputs, sigmoid)
    loss, _ = mse_loss(outputs, targets)
    batch, steps, dim = inputs.shape
    hidden = params.lstm.shape[0] // 4
    grads = {}

    d_out = 2.0 * (outputs - targets) / (batch * targets.shape[1])
    grads["w2"] = d_out.T @ cache["dense"]
    grads["b2"] = d_out.sum(axis=0)
    d_z1 = (d_out @ params.w2) * tanh_grad(cache["dense"])
    grads["w1"] = d_z1.T @ cache["h"][steps - 1].T
    grads["b1"] = d_z1.sum(axis=0)
    dh = (d_z1 @ params.w1).T

    u_t = lstm_blocks(params)[1].reshape(4 * hidden, hidden).T  # a copy; backward reads a strided view
    d_stacked = np.zeros((4 * hidden, dim + hidden + 1))
    dc = np.zeros_like(dh)
    for t in range(steps - 1, -1, -1):
        i, f, o, g = (cache[gate][t] for gate in GATES)
        tc = cache["tc"][t]
        c_prev = cache["c"][t - 1] if t > 0 else np.zeros_like(tc)
        h_prev = cache["h"][t - 1] if t > 0 else np.zeros_like(tc)

        da_o = dh * tc * sigmoid_grad(o)
        dc = dc + dh * o * tanh_grad(tc)
        da_i = dc * g * sigmoid_grad(i)
        da_f = dc * c_prev * sigmoid_grad(f)
        da_g = dc * i * tanh_grad(g)

        d_pre = np.concatenate((da_i, da_f, da_o, da_g))
        d_stacked += linalg.matmul(d_pre, step_operand(inputs[:, t, :], h_prev).T)
        dh = linalg.matmul(u_t, d_pre)
        dc = dc * f
    for k, gate in enumerate(GATES):
        rows = d_stacked[k * hidden : (k + 1) * hidden]
        grads[f"w_{gate}"], grads[f"u_{gate}"], grads[f"b_{gate}"] = rows[:, :dim], rows[:, dim:-1], rows[:, -1]
    return loss, grads


def test_predict_batch_bit_identical_to_reference_at_paper_shape():
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(25))
    windows = np.random.default_rng(26).uniform(0.0, 1.0, (600, 250, 5))
    expected = np.concatenate(
        [reference_forward(params, windows[s : s + 512])[0] for s in (0, 512)]
    )
    assert np.array_equal(predict_stack(params, windows), expected)


def test_training_forward_bit_identical_to_reference_at_desk_shape():
    cfg = model_config(hidden_dim=16, dense_dim=16)
    params = init_model(cfg, SeededRng(27))
    inputs = np.random.default_rng(28).uniform(0.0, 1.0, (200, 50, 5))
    expected_out, expected = reference_forward(params, inputs)
    outputs, cache = _forward(params, _check_inputs(params, inputs, 3), keep_cache=True)
    assert np.array_equal(outputs, expected_out)
    for k, gate in enumerate(GATES):
        assert np.array_equal(cache.gates[:, k], expected[gate]), gate
    assert model._segment(50) == 8  # ceil(sqrt(50))
    ends = [7, 15, 23, 31, 39, 47, 49]
    assert np.array_equal(cache.c_ends, expected["c"][ends])
    assert np.array_equal(cache.h_ends, expected["h"][ends])
    # the recompute backward relies on for the c, tanh(c) and h it does not
    # cache: each segment's states from the end of the one before
    for start in range(0, 50, 8):
        c = cache.c_ends[start // 8 - 1] if start else np.zeros_like(cache.c_ends[0])
        for t in range(start, min(start + 8, 50)):
            i, f, o, g = cache.gates[t]
            c = f * c + i * g
            assert np.array_equal(c, expected["c"][t]), t
            tc = np.tanh(c)
            assert np.array_equal(tc, expected["tc"][t]), t
            assert np.array_equal(o * tc, expected["h"][t]), t


def test_training_forward_without_gate_cache_bit_identical_to_reference_at_desk_shape(monkeypatch):
    monkeypatch.setattr(model, "GATE_CACHE_BYTES", 0)
    cfg = model_config(hidden_dim=16, dense_dim=16)
    params = init_model(cfg, SeededRng(27))
    inputs = np.random.default_rng(28).uniform(0.0, 1.0, (200, 50, 5))
    expected_out, expected = reference_forward(params, inputs)
    outputs, cache = _forward(params, _check_inputs(params, inputs, 3), keep_cache=True)
    assert np.array_equal(outputs, expected_out)
    assert cache.gates is None
    ends = [7, 15, 23, 31, 39, 47, 49]
    assert np.array_equal(cache.c_ends, expected["c"][ends])
    assert np.array_equal(cache.h_ends, expected["h"][ends])
    # the replay backward relies on for the gates it does not cache: each
    # segment's steps rerun by the forward's step routine from the states
    # at the end of the one before
    step, h = model._stepper(params, 200)
    z = np.empty((4, 16, 200))
    for start in range(0, 50, 8):
        h[:] = cache.h_ends[start // 8 - 1] if start else 0.0
        c = cache.c_ends[start // 8 - 1].copy() if start else np.zeros_like(cache.c_ends[0])
        for t in range(start, min(start + 8, 50)):
            step(inputs[:, t, :], c, c, z, check=False)
            for k, gate in enumerate(GATES):
                assert np.array_equal(z[k], expected[gate][t]), (gate, t)
            assert np.array_equal(c, expected["c"][t]), t
            assert np.array_equal(h, expected["h"][t]), t


# --- drift from the per-gate association ------------------------------------
#
# The kernel sums each gate pre-activation and each weight gradient in one
# stacked product. The per-gate loops below sum them as the kernel once did:
# x_t @ W^T and h @ U^T as separate products, then + b; per-gate weight
# gradients, an explicit bias sum and dh as the sum of four products. They
# are a second oracle: the reassociation may move each result by rounding,
# relative to the array's largest entry, and by nothing more.

DRIFT = 1e-12


def per_gate_forward(params, inputs):
    """Outputs and activations of the LSTM forward pass, batch-major (B, H),
    with each gate's two products summed separately and then the bias."""
    batch, steps, _ = inputs.shape
    hidden = params.lstm.shape[0] // 4
    w, u, b = lstm_blocks(params)
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    cache = {name: np.empty((steps, batch, hidden)) for name in ("i", "f", "o", "g", "c", "tc", "h")}
    for t in range(steps):
        x_t = inputs[:, t, :]
        pre = [linalg.matmul(x_t, w[k].T) + linalg.matmul(h, u[k].T) + b[k] for k in range(4)]
        i, f, o = (linalg.activation(SIGMOID, a) for a in pre[:3])
        g = linalg.activation(TANH, pre[3])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        for name, value in (("i", i), ("f", f), ("o", o), ("g", g), ("c", c), ("tc", tc), ("h", h)):
            cache[name][t] = value
    dense = linalg.activation(TANH, linalg.matmul(h, params.w1.T) + params.b1)
    cache["dense"] = dense
    return linalg.matmul(dense, params.w2.T) + params.b2, cache


def per_gate_backward(params, inputs, targets):
    """Loss and gradients (a ModelParams) with every sum in the per-gate order."""
    outputs, cache = per_gate_forward(params, inputs)
    loss, _ = mse_loss(outputs, targets)
    batch, steps, _ = inputs.shape
    grads = ModelParams(**{name: np.zeros_like(arr) for name, arr in params.items()})
    d_out = 2.0 * (outputs - targets) / (batch * targets.shape[1])
    grads.w2 = d_out.T @ cache["dense"]
    grads.b2 = d_out.sum(axis=0)
    d_z1 = (d_out @ params.w2) * tanh_grad(cache["dense"])
    grads.w1 = d_z1.T @ cache["h"][steps - 1]
    grads.b1 = d_z1.sum(axis=0)
    dh = d_z1 @ params.w1
    dc = np.zeros_like(dh)
    d_w, d_u, d_b = lstm_blocks(grads)
    u = lstm_blocks(params)[1]
    for t in range(steps - 1, -1, -1):
        i, f, o, g = (cache[gate][t] for gate in GATES)
        tc = cache["tc"][t]
        c_prev = cache["c"][t - 1] if t > 0 else np.zeros_like(tc)
        h_prev = cache["h"][t - 1] if t > 0 else np.zeros_like(tc)
        da_o = dh * tc * sigmoid_grad(o)
        dc = dc + dh * o * tanh_grad(tc)
        da_i = dc * g * sigmoid_grad(i)
        da_f = dc * c_prev * sigmoid_grad(f)
        da_g = dc * i * tanh_grad(g)
        for k, da in enumerate((da_i, da_f, da_o, da_g)):
            d_w[k] += da.T @ inputs[:, t, :]
            d_u[k] += da.T @ h_prev
            d_b[k] += da.sum(axis=0)
        dh = da_i @ u[0] + da_f @ u[1] + da_o @ u[2] + da_g @ u[3]
        dc = dc * f
    return loss, grads


def assert_drift_within(actual, expected, what):
    """Every entry of ``actual`` within DRIFT of ``expected``, relative to
    ``expected``'s largest magnitude."""
    assert actual.shape == expected.shape, what
    assert np.max(np.abs(actual - expected)) <= DRIFT * np.max(np.abs(expected)), what


def assert_gradients_drift_within(params, inputs, targets):
    expected_loss, expected = per_gate_backward(params, inputs, targets)
    loss, grads = backward(params, inputs, targets)
    assert abs(loss - expected_loss) <= DRIFT * expected_loss
    for name, grad in grads.items():
        assert_drift_within(grad, getattr(expected, name), name)


@pytest.mark.parametrize("budget", [model.GATE_CACHE_BYTES, 0], ids=["kept", "replayed"])
def test_training_drift_from_per_gate_reference_at_desk_shape(monkeypatch, budget):
    monkeypatch.setattr(model, "GATE_CACHE_BYTES", budget)
    cfg = model_config(hidden_dim=16, dense_dim=16)
    params = init_model(cfg, SeededRng(27))
    rng = np.random.default_rng(28)
    inputs = rng.uniform(0.0, 1.0, (200, 50, 5))
    outputs, cache = _forward(params, _check_inputs(params, inputs, 3), keep_cache=True)
    assert (cache.gates is None) == (budget == 0)
    assert_drift_within(outputs, per_gate_forward(params, inputs)[0], "outputs")
    assert_gradients_drift_within(params, inputs, rng.uniform(0.0, 1.0, (200, 2)))


def test_backward_drift_from_per_gate_reference_at_paper_shape():
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(38))
    rng = np.random.default_rng(39)
    assert_gradients_drift_within(params, rng.uniform(0.0, 1.0, (200, 250, 5)),
                                  rng.uniform(0.0, 1.0, (200, 2)))


def test_predict_batch_drift_from_per_gate_reference_at_paper_shape():
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(25))
    windows = np.random.default_rng(26).uniform(0.0, 1.0, (600, 250, 5))
    assert_drift_within(predict_stack(params, windows), per_gate_forward(params, windows)[0],
                        "outputs")


# --- drift from the branch-form sigmoid -------------------------------------
#
# The kernel's sigmoid, and linalg's with it, is 1 / (1 + exp(-x)) in four
# passes; it was the branch form, which never overflows. The stacked
# reference on the branch form is a third oracle: the formula may move each
# result by rounding, relative to the array's largest entry, and by nothing
# more.

def assert_gradients_drift_from_branch_sigmoid_within(params, inputs, targets):
    expected_loss, expected = reference_backward(params, inputs, targets, branch_sigmoid)
    loss, grads = backward(params, inputs, targets)
    assert abs(loss - expected_loss) <= DRIFT * expected_loss
    expected_lstm = np.concatenate(
        [np.column_stack([expected[f"{kind}_{gate}"] for kind in "wub"]) for gate in GATES]
    )
    assert_drift_within(grads.lstm, expected_lstm, "lstm")
    for name in ("w1", "b1", "w2", "b2"):
        assert_drift_within(getattr(grads, name), expected[name], name)


@pytest.mark.parametrize("budget", [model.GATE_CACHE_BYTES, 0], ids=["kept", "replayed"])
def test_training_drift_from_branch_sigmoid_at_desk_shape(monkeypatch, budget):
    monkeypatch.setattr(model, "GATE_CACHE_BYTES", budget)
    cfg = model_config(hidden_dim=16, dense_dim=16)
    params = init_model(cfg, SeededRng(27))
    rng = np.random.default_rng(28)
    inputs = rng.uniform(0.0, 1.0, (200, 50, 5))
    outputs, cache = _forward(params, _check_inputs(params, inputs, 3), keep_cache=True)
    assert (cache.gates is None) == (budget == 0)
    assert_drift_within(outputs, reference_forward(params, inputs, branch_sigmoid)[0], "outputs")
    assert_gradients_drift_from_branch_sigmoid_within(params, inputs, rng.uniform(0.0, 1.0, (200, 2)))


def test_backward_drift_from_branch_sigmoid_at_paper_shape():
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(38))
    rng = np.random.default_rng(39)
    assert_gradients_drift_from_branch_sigmoid_within(
        params, rng.uniform(0.0, 1.0, (200, 250, 5)), rng.uniform(0.0, 1.0, (200, 2))
    )


def test_predict_batch_drift_from_branch_sigmoid_at_paper_shape():
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(25))
    windows = np.random.default_rng(26).uniform(0.0, 1.0, (600, 250, 5))
    expected = np.concatenate(
        [reference_forward(params, windows[s : s + 512], branch_sigmoid)[0] for s in (0, 512)]
    )
    assert_drift_within(predict_stack(params, windows), expected, "outputs")


def assert_same_gradients(params, inputs, targets):
    expected_loss, expected = reference_backward(params, inputs, targets)
    loss, grads = backward(params, inputs, targets)
    assert loss == expected_loss
    for kind, blocks in zip(("w", "u", "b"), lstm_blocks(grads)):
        for k, gate in enumerate(GATES):
            assert np.array_equal(blocks[k], expected[f"{kind}_{gate}"]), (kind, gate)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(grads, name), expected[name]), name
    return grads


# the segment edges of K = 4 and K = 7 steps: T = 1, 2, K - 1, K, K + 1, K^2, K^2 + 1,
# with the gates kept (the default budget) and replayed (budget 0); and at
# T = 17 and 50, a budget of exactly the gates' bytes, which keeps them, and
# one byte less, which replays them
EDGES = [1, 2, 3, 4, 5, 16, 17, 6, 7, 8, 49, 50]


def gate_cache_bytes(steps):
    """The bytes of the (T, 4, H, B) gates at H = 2, B = 1: the least
    budget that keeps them."""
    return steps * 4 * 2 * 1 * 8


@pytest.mark.parametrize(
    "steps, budget, kept",
    [pytest.param(steps, model.GATE_CACHE_BYTES, True, id=str(steps)) for steps in EDGES]
    + [pytest.param(steps, 0, False, id=f"{steps}-replay") for steps in EDGES]
    + [pytest.param(steps, gate_cache_bytes(steps) - less, less == 0,
                    id=f"{steps}-budget-{'exact' if less == 0 else 'one-byte-short'}")
       for steps in (17, 50) for less in (0, 1)],
)
def test_backward_bit_identical_to_reference_at_segment_edges(monkeypatch, steps, budget, kept):
    monkeypatch.setattr(model, "GATE_CACHE_BYTES", budget)
    caches = []

    def recording_forward(*args, **kwargs):
        outputs, cache = _forward(*args, **kwargs)
        caches.append(cache)
        return outputs, cache

    monkeypatch.setattr(model, "_forward", recording_forward)
    assert model._segment(steps) == math.ceil(math.sqrt(steps))
    cfg = model_config(hidden_dim=2, dense_dim=3)
    params = init_model(cfg, SeededRng(40 + steps))
    rng = np.random.default_rng(steps)
    assert_same_gradients(params, rng.uniform(0.0, 1.0, (1, steps, 5)), rng.uniform(0.0, 1.0, (1, 2)))
    assert [cache.gates is not None for cache in caches] == [kept]


def test_backward_bit_identical_to_reference_at_paper_shape():
    # the gates (51.2 MB) do not fit GATE_CACHE_BYTES: this runs the replay
    assert 250 * 4 * 200 * 32 * 8 > model.GATE_CACHE_BYTES
    cfg = model_config(hidden_dim=32, dense_dim=32)
    params = init_model(cfg, SeededRng(38))
    rng = np.random.default_rng(39)
    assert_same_gradients(params, rng.uniform(0.0, 1.0, (200, 250, 5)), rng.uniform(0.0, 1.0, (200, 2)))


def test_backward_bit_identical_to_reference_at_desk_shape():
    cfg = model_config(hidden_dim=16, dense_dim=16, learning_rate=1e-2)
    params = init_model(cfg, SeededRng(34))
    adam = init_adam(cfg)
    rng = np.random.default_rng(35)
    for update in range(3):
        inputs = rng.uniform(0.0, 1.0, (200, 50, 5))
        targets = rng.uniform(0.0, 1.0, (200, 2))
        adam_step(params, assert_same_gradients(params, inputs, targets), adam, cfg)
