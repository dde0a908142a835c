"""Recurrent regression model with exact hand-derived backpropagation.

Architecture: one LSTM layer unrolled over the full input window from a
zero state, a tanh dense layer on the final hidden state, and a linear
output head (unbounded on purpose: a saturating head starves gradients
early in online training). Per step, with sigmoid gates i, f, o and tanh
candidate g:

    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The weights are stored gate-stacked in the order i, f, o, g: ``w``
(4, hidden, input), ``u`` (4, hidden, hidden) and ``b`` (4, hidden),
then the head's ``w1``, ``b1``, ``w2`` and ``b2``. These seven arrays are
the unit of the gradients, the Adam moments and the checkpoint.

One step loop serves training (keeping the BPTT cache) and prediction
(keeping only the running state). The cache holds four (T, B, H) blocks,
the four gates of every step, plus the cell state at the end of each
segment of ceil(sqrt(T)) steps and the final hidden state. Just before
BPTT walks a segment in reverse, it recomputes that segment's cell
states from the last state before it, with the forward pass's three
operations in the same order (recomputation as in Chen et al. 2016,
arXiv 1604.06174); it recomputes tanh(c) and h = o * tanh(c) one step
back. The same operations on the same inputs give the same bits, so the
gradients are those a cache of every step's c, tanh(c) and h would give.
Finiteness is checked at the boundaries, not per operation: the windows
once on entry, the four gate pre-activations once per step, then the
dense pre-activation and the output product; prediction also checks the
outputs after the bias b2, which training reports as divergence. A
failed check raises ``NonFiniteError``, a ``ValueError`` that names the
batch rows holding a non-finite value; the rows are found only once a
check has failed, and ``trainer.train_update`` adds each row's
greenhouse and timestamp.
Values read from CSV are already finite (``csvio``).

Evaluation takes a series and the final rows of its windows (see
``dataset``) and runs them in chunks of 512 windows, one worker thread
per usable CPU; each worker gathers its own chunk from the series, so
no stack of the whole test set is built. Results are bit-identical for
any CPU count. Importing ``ghreplay`` pins BLAS to one thread unless the
environment already sets its thread count, so chunk threads do not
multiply with BLAS threads.

The training loss is the batch-mean MSE that evaluation also uses.
Gradients are derived by hand through the unrolled window (no autodiff);
the finite-difference suite checks every parameter entry. The optimizer
is Adam with bias correction.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import stack_steps
from .linalg import TANH
from .rng import SeededRng


class TrainingDivergedError(RuntimeError):
    """Raised when a forward/backward pass produces a non-finite loss;
    ``rows`` are the batch rows whose prediction or squared error is
    non-finite (none when only their sum overflows)."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=np.int64)


class NonFiniteError(ValueError):
    """Raised when a kernel finiteness check fails; ``rows`` are the batch
    rows that hold a non-finite value."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=np.int64)


def _non_finite(what: str, x: np.ndarray, first_row: int) -> NonFiniteError:
    """The error for a failed finiteness check of ``x``, whose first axis
    runs over the batch rows from ``first_row`` on; only a failed check
    looks for the rows."""
    rows = first_row + np.flatnonzero(~np.isfinite(x).reshape(len(x), -1).all(axis=1))
    return NonFiniteError(f"{what} non-finite values in batch rows {rows.tolist()}", rows)


@dataclass
class ModelConfig:
    input_dim: int = 5
    hidden_dim: int = 32
    dense_dim: int = 32
    output_dim: int = 2
    window_len: int = 250
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    grad_clip: float | None = None   # max global grad norm, None = off

    def validate(self) -> None:
        for name in ("input_dim", "hidden_dim", "dense_dim", "output_dim", "window_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("ModelConfig.learning_rate must be > 0")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("ModelConfig.grad_clip must be > 0 or None")


@dataclass
class ModelParams:
    """All weights. The LSTM gates are stacked in the order i, f, o, g:
    input weights w (4, hidden, input), recurrent weights u (4, hidden,
    hidden) and biases b (4, hidden). The head is w1 (dense, hidden), b1,
    w2 (output, dense) and b2."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def items(self):
        for f in dataclasses.fields(self):
            yield f.name, getattr(self, f.name)

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.items()})


# Gradients share the ModelParams layout: one array per parameter.
Gradients = ModelParams


def zeros_params(cfg: ModelConfig) -> ModelParams:
    h, d = cfg.hidden_dim, cfg.input_dim
    dn, out = cfg.dense_dim, cfg.output_dim
    z = np.zeros
    return ModelParams(
        w=z((4, h, d)), u=z((4, h, h)), b=z((4, h)),
        w1=z((dn, h)), b1=z(dn), w2=z((out, dn)), b2=z(out),
    )


def init_model(cfg: ModelConfig, rng: SeededRng) -> ModelParams:
    """Glorot weights drawn in a fixed order (the four input gates, the four
    recurrent gates, w1, w2); zero biases except the forget gate's at 1 so
    gradients flow through long windows from the start."""
    cfg.validate()
    h, d = cfg.hidden_dim, cfg.input_dim
    params = zeros_params(cfg)
    for k in range(4):
        params.w[k] = linalg.glorot_init(h, d, rng)
    for k in range(4):
        params.u[k] = linalg.glorot_init(h, h, rng)
    params.w1 = linalg.glorot_init(cfg.dense_dim, h, rng)
    params.w2 = linalg.glorot_init(cfg.output_dim, cfg.dense_dim, rng)
    params.b[1] = 1.0
    return params


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    t: int = 0


def init_adam(cfg: ModelConfig) -> AdamState:
    return AdamState(m=zeros_params(cfg), v=zeros_params(cfg))


@dataclass
class ForwardCache:
    """Activations retained for backpropagation through time: four (T, B, H)
    blocks, the gates, and the cell states at the segment ends, steps
    K - 1, 2K - 1, ... and T - 1 for segments of K = _segment(T) steps.
    BPTT recomputes the other cell states one segment at a time, and
    tanh(c) and the hidden states before the last one step at a time as
    tanh(c) and gates[t, 2] * tanh(c)."""

    inputs: np.ndarray    # (B, T, D)
    gates: np.ndarray     # (T, 4, B, H) gates i, f, o and candidate g
    c_ends: np.ndarray    # (ceil(T / K), B, H) segment-end cell states
    h: np.ndarray         # (B, H) final hidden state
    dense: np.ndarray     # (B, dense) tanh layer output
    outputs: np.ndarray   # (B, output_dim) predictions


_LAYOUTS = {
    2: "a series of shape (records, input_dim)",
    3: "windows of shape (batch, window_len, input_dim)",
}


def _check_inputs(params: ModelParams, inputs: np.ndarray, ndim: int) -> np.ndarray:
    """``inputs`` as float64, checked to have ``ndim`` axes and the model's
    input_dim as the last."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != ndim:
        raise ValueError(f"expected {_LAYOUTS[ndim]}, got {inputs.shape}")
    if inputs.shape[-1] != params.w.shape[2]:
        raise ValueError(
            f"input_dim {inputs.shape[-1]} does not match model input_dim {params.w.shape[2]}"
        )
    return inputs


def _sigmoid_inplace(x: np.ndarray, e: np.ndarray, numerator: np.ndarray) -> None:
    """Sigmoid of finite x into x, with e and numerator scratch buffers of
    x's shape.

    Bit-identical to linalg.activation(SIGMOID, x): exp() only sees
    -|x|, so 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below.
    The numerator max(e, x >= 0) is that select without a data-dependent
    branch, because 0 <= e <= 1.
    """
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=numerator, casting="unsafe")
    np.maximum(e, numerator, out=numerator)
    e += 1.0
    np.divide(numerator, e, out=x)


def _segment(steps: int) -> int:
    """BPTT segment length for a ``steps``-step window: ceil(sqrt(steps)),
    which keeps the segment-end states and one segment's recomputed
    states both near sqrt(steps) (B, H) arrays."""
    return math.isqrt(steps - 1) + 1


def _forward(
    params: ModelParams, inputs: np.ndarray, keep_cache: bool, first_row: int = 0
) -> tuple[np.ndarray, ForwardCache | None]:
    """The LSTM forward pass over a shape-checked (B, T, D) batch.

    Each gate's pre-activation is x_t @ W^T + h @ U^T + b, summed in that
    order, and finiteness is checked once per step on all four sums: a
    non-finite product or bias makes its sum non-finite. The gates'
    weights are stored stacked, so each product is one broadcast matmul
    over transposed views that issues one gemm call per gate. With
    keep_cache the gates are written straight into the BPTT cache and c
    is copied out at each segment end; h, c, tanh(c) and, without
    keep_cache, the gates are scratch buffers updated in place. A failed
    check raises ``NonFiniteError`` naming the batch rows involved,
    numbered from ``first_row``.
    """
    if not np.isfinite(inputs).all():
        raise _non_finite("windows contain", inputs, first_row)
    batch, steps, _ = inputs.shape
    hidden = params.u.shape[1]
    w = params.w.transpose(0, 2, 1)
    u = params.u.transpose(0, 2, 1)
    shape = (batch, hidden)
    # full-shape, because a broadcast add over rows of H is twice as slow
    b = np.empty((4,) + shape)
    b[:] = params.b[:, None, :]
    h = np.zeros(shape)
    c = np.zeros(shape)
    ig = np.empty(shape)
    hu = np.empty((4,) + shape)
    e = np.empty((3,) + shape)
    tc = np.empty(shape)
    if keep_cache:
        segment = _segment(steps)
        gates_s = np.empty((steps, 4) + shape)
        c_ends = np.empty((-(-steps // segment),) + shape)
    else:
        z = np.empty((4,) + shape)

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if keep_cache:
                z = gates_s[t]
            np.matmul(inputs[:, t, :], w, out=z)
            np.matmul(h, u, out=hu)
            z += hu
            z += b
            if not np.isfinite(z).all():
                raise _non_finite(
                    f"LSTM step {t}: gate pre-activation contains", z.transpose(1, 0, 2), first_row
                )
            _sigmoid_inplace(z[:3], e, hu[:3])  # hu is free once added
            np.tanh(z[3], out=z[3])
            i, f, o, g = z
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=ig)
            c += ig
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=h)  # h's old value is spent in hu
            if keep_cache and ((t + 1) % segment == 0 or t == steps - 1):
                c_ends[t // segment] = c

        pre_dense = h @ params.w1.T + params.b1
        if not np.isfinite(pre_dense).all():
            raise _non_finite("dense layer pre-activation contains", pre_dense, first_row)
        dense = np.tanh(pre_dense)
        head = dense @ params.w2.T
        if not np.isfinite(head).all():
            raise _non_finite("output layer product contains", head, first_row)
    outputs = head + params.b2

    if not keep_cache:
        return outputs, None
    return outputs, ForwardCache(inputs, gates_s, c_ends, h, dense, outputs)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


CHUNK = 512  # windows per evaluation chunk: part of the prediction bits


def predict_batch(
    params: ModelParams, rows: np.ndarray, inputs: np.ndarray, window_len: int
) -> np.ndarray:
    """Stateless predictions for the windows of the (N, D) series ``inputs``
    that end at ``rows``, one output row per entry of ``rows``.

    The windows run in independent chunks of ``CHUNK``, spread over one
    worker per usable CPU: the calling thread takes chunks 0, w, 2w, ...
    and w - 1 helper threads take the rest. Each worker gathers its own
    chunk from the series, so at most one chunk per worker is ever
    stacked. The gather is step-major, because the kernel reads one step
    of all the chunk's windows at a time: with two workers, batch-major
    chunks made a paper-shape evaluation about 15 % slower than one
    whole-set stack, and step-major chunks did not. A chunk's result
    does not depend on the thread that computes it, so the output is
    bit-identical for any CPU count; the chunk size does change bits.
    """
    inputs = _check_inputs(params, inputs, 2)
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValueError("predict_batch: empty batch")
    starts = range(0, len(rows), CHUNK)
    workers = min(len(starts), _usable_cpus())

    def predict_chunk(start: int) -> np.ndarray:
        steps = stack_steps(inputs, rows[start : start + CHUNK], window_len)
        return _forward(params, steps.transpose(1, 0, 2), keep_cache=False, first_row=start)[0]

    def run(share: range) -> list[np.ndarray]:
        return [predict_chunk(s) for s in share]

    if workers == 1:
        pieces = run(starts)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(run, starts[j::workers]) for j in range(1, workers)]
            shares = [run(starts[0::workers])] + [f.result() for f in helpers]
        pieces = [shares[k % workers][k // workers] for k in range(len(starts))]
    outputs = np.concatenate(pieces, axis=0)
    if not np.isfinite(outputs).all():
        raise _non_finite("output layer plus bias b2 contains", outputs, 0)
    return outputs


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch MSE: per-output column means, total defined as their mean."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(f"mse_loss: shape mismatch {predictions.shape} vs {targets.shape}")
    if predictions.ndim != 2 or predictions.shape[0] == 0:
        raise ValueError(f"mse_loss: need a nonempty (n, outputs) batch, got {predictions.shape}")
    err = predictions - targets
    per_output = np.mean(err * err, axis=0)
    return float(np.mean(per_output)), per_output


def backward(params: ModelParams, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, Gradients]:
    """Loss and exact gradients of the batch-mean MSE through the window.

    Backward recurrence per step (dh, dc carry into earlier steps):

        do = dh * tanh(c);        dc += dh * o * (1 - tanh(c)^2)
        di = dc * g;  df = dc * c_prev;  dg = dc * i
        dh_prev = sum_gate (d_pre_gate @ U_gate);  dc_prev = dc * f

    The loop runs in place on preallocated (B, H) buffers. At the last
    step of each segment it recomputes the cell states before that step
    in the segment, from the cached state before the segment, as
    f * c_prev + i * g with the forward pass's operations in its order.
    tanh(c_prev) and h_prev = o_prev * tanh(c_prev) are recomputed once
    per step, and tanh(c_prev) is carried into the next step as tanh(c).
    The four gate deltas share one (4, B, H) buffer, so each weight
    gradient is one broadcast matmul that issues one gemm call per gate,
    and the bias gradient is one einsum over the batch axis.
    """
    if inputs.shape[0] == 0:
        raise ValueError("backward: empty batch")
    outputs, cache = _forward(params, _check_inputs(params, inputs, 3), keep_cache=True)
    targets = np.asarray(targets, dtype=np.float64)

    if not np.isfinite(outputs).all():
        bad = np.where(~np.isfinite(outputs).all(axis=1))[0]
        raise TrainingDivergedError(f"non-finite predictions for batch rows {bad.tolist()}", bad)
    loss, _ = mse_loss(outputs, targets)
    if not np.isfinite(loss):
        bad = np.where(~np.isfinite((outputs - targets) ** 2).all(axis=1))[0]
        raise TrainingDivergedError(f"non-finite loss from batch rows {bad.tolist()}", bad)

    batch, steps, _ = cache.inputs.shape
    n_out = targets.shape[1]
    grads = Gradients(**{name: np.zeros_like(arr) for name, arr in params.items()})

    # head
    d_out = 2.0 * (outputs - targets) / (batch * n_out)
    grads.w2 = d_out.T @ cache.dense
    grads.b2 = d_out.sum(axis=0)
    d_dense = d_out @ params.w2
    d_z1 = d_dense * linalg.activation_grad(TANH, cache.dense)
    grads.w1 = d_z1.T @ cache.h
    grads.b1 = d_z1.sum(axis=0)
    dh = d_z1 @ params.w1

    # unrolled LSTM; da holds the gate pre-activation deltas in gate order,
    # s an activation derivative written in terms of the activation output
    shape = dh.shape
    dc = np.zeros(shape)
    zero = np.zeros(shape)
    da, p = np.empty((2, 4) + shape)
    s, dc_in, tc_prev, h_prev = np.empty((4,) + shape)
    dw, du, db = np.empty_like(params.w), np.empty_like(params.u), np.empty_like(params.b)
    segment = _segment(steps)
    c_seg = np.empty((segment,) + shape)      # c_seg[k] is c_{t-1} at k = t % segment
    tc = np.tanh(cache.c_ends[-1])
    for t in range(steps - 1, -1, -1):
        k = t % segment
        if t == steps - 1 or k == segment - 1:
            # a segment's last step: recompute the states before it in the
            # segment from the cached one before the segment
            start = t - k
            c_seg[0] = cache.c_ends[start // segment - 1] if start else zero
            for j in range(k):
                i, f, _, g = cache.gates[start + j]
                np.multiply(f, c_seg[j], out=c_seg[j + 1])
                np.multiply(i, g, out=s)
                c_seg[j + 1] += s
        i, f, o, g = cache.gates[t]
        if t > 0:
            c_prev = c_seg[k]
            np.tanh(c_prev, out=tc_prev)
            np.multiply(cache.gates[t - 1, 2], tc_prev, out=h_prev)
        else:
            c_prev = h_prev = zero
        x_t = cache.inputs[:, t, :]

        np.multiply(dh, tc, out=da[2])        # da_o = (dh * tc) * (o (1 - o))
        np.subtract(1.0, o, out=s)
        s *= o
        da[2] *= s
        np.multiply(dh, o, out=dc_in)         # dc += (dh * o) * (1 - tc^2)
        np.multiply(tc, tc, out=s)
        np.subtract(1.0, s, out=s)
        dc_in *= s
        dc += dc_in
        np.multiply(dc, g, out=da[0])         # da_i = (dc * g) * (i (1 - i))
        np.subtract(1.0, i, out=s)
        s *= i
        da[0] *= s
        np.multiply(dc, c_prev, out=da[1])    # da_f = (dc * c_prev) * (f (1 - f))
        np.subtract(1.0, f, out=s)
        s *= f
        da[1] *= s
        np.multiply(dc, i, out=da[3])         # da_g = (dc * i) * (1 - g^2)
        np.multiply(g, g, out=s)
        np.subtract(1.0, s, out=s)
        da[3] *= s

        da_t = da.transpose(0, 2, 1)
        grads.w += np.matmul(da_t, x_t, out=dw)
        grads.u += np.matmul(da_t, h_prev, out=du)
        grads.b += np.einsum("kbh->kh", da, out=db)

        np.matmul(da, params.u, out=p)        # dh = ((p0 + p1) + p2) + p3
        np.add(p[0], p[1], out=dh)
        dh += p[2]
        dh += p[3]
        dc *= f
        tc, tc_prev = tc_prev, tc

    return loss, grads


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    total = 0.0
    for _, g in grads.items():
        total += float(np.sum(g * g))
    norm = total ** 0.5
    if norm > max_norm:
        scale = max_norm / norm
        for _, g in grads.items():
            g *= scale
    return norm


def adam_step(params: ModelParams, grads: Gradients, adam: AdamState, cfg: ModelConfig) -> None:
    """One bias-corrected Adam update, in place."""
    adam.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bc1 = 1.0 - b1 ** adam.t
    bc2 = 1.0 - b2 ** adam.t
    for name, p in params.items():
        g = getattr(grads, name)
        m = getattr(adam.m, name)
        v = getattr(adam.v, name)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_epsilon)
