"""Recurrent regression model with exact hand-derived backpropagation.

Architecture: one LSTM layer unrolled over the full input window from a
zero state, a tanh dense layer on the final hidden state, and a linear
output head (unbounded on purpose: a saturating head starves gradients
early in online training). Per step, with sigmoid gates i, f, o and tanh
candidate g:

    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The LSTM's weights are stored as the one matrix its step multiplies,
``lstm`` = [w | u | b] of shape (4H, D + H + 1): the input weights, the
recurrent weights and the biases side by side, the rows stacked by gate
in the order i, f, o, g. Then come the head's ``w1``, ``b1``, ``w2`` and
``b2``. These five arrays are the unit of the gradients, the Adam
moments and the checkpoint.

One step routine serves training (keeping the BPTT cache), prediction
(keeping only the running state) and BPTT's replay. Each step issues one
GEMM, ``lstm`` times the (D + H + 1, B) operand [x_t; h; 1] (Appleyard
et al. 2016, arXiv 1604.01946), and the state runs hidden-major: the
gates come out as (4H, B), each gate a contiguous (H, B) block, and h
and c are (H, B); the step's temporaries share one (3, H, B) scratch
block.
The cache holds the cell and hidden states at the end of each segment
of ceil(sqrt(T)) steps and, if they fit in ``GATE_CACHE_BYTES``
(8 MiB), the four gates of every step as one (T, 4, H, B) block;
otherwise (paper shapes) no gate. Just before BPTT walks a segment in
reverse, it recomputes that segment's cell states from the last state
before it, the zero state before the first segment (Chen et al. 2016,
arXiv 1604.06174): from the kept gates with the forward pass's three
operations in its order, or by replaying the segment's steps, each
writing its cell state straight into the segment's rows (Gruslys et al.
2016, arXiv 1606.03401); it recomputes tanh(c) and h = o * tanh(c) one
step back, and a segment's first step reads the h kept at the end of
the segment before.
The same operations on the same inputs give the same bits, so the
gradients are those a cache of every step's state would give. BPTT
issues two GEMMs per step: the gate deltas times the step's operand
transposed, the gradient of ``lstm`` at once, and its recurrent block
transposed times the deltas, dh.
Finiteness is checked at the boundaries, not per operation: the windows
once on entry, where they and the LSTM weights are also bounded; the
four gate pre-activations at every step only when that bound cannot
rule out an overflow; then the dense pre-activation and the outputs
after the bias b2, in the one forward pass that training and prediction
share; ``mse_loss`` checks the squared errors of training and
evaluation alike. A failed check raises
``NonFiniteError``, a ``ValueError`` that names the batch rows holding a
non-finite value; the rows are found only once a check has failed, and
``trainer.train_update`` adds each row's greenhouse and timestamp.
Values read from CSV are already finite (``csvio``).

Evaluation takes a series and the final rows of its windows (see
``dataset``) and runs them in chunks of 512 windows, one contiguous
block of chunks per usable CPU; each worker gathers its own chunk from
the series, so no stack of the whole test set is built. Results are
bit-identical for any CPU count. Importing ``ghreplay`` pins BLAS to one
thread unless the environment already sets its thread count, so chunk
threads do not multiply with BLAS threads.

The training loss is the batch-mean MSE that evaluation also uses.
Gradients are derived by hand through the unrolled window (no autodiff);
the finite-difference suite checks every parameter entry. The optimizer
is Adam with bias correction at its published constants, beta1 = 0.9,
beta2 = 0.999 and epsilon = 1e-8 (Kingma & Ba 2015, arXiv 1412.6980);
they are module constants, not settings.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import INPUT_FIELDS, TARGET_FIELDS, integer_rows, stack_steps
from .rng import SeededRng
from .schema import EXPERIMENT_SCHEMA, check_fields

GATE_CACHE_BYTES = 8 * 2**20  # the largest gate cache a training forward keeps
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's published constants


class NonFiniteError(ValueError):
    """Raised when a kernel finiteness check fails; ``rows`` are the batch
    rows that hold a non-finite value (none when only the sum of finite
    squared errors overflows)."""

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
    """The spec's model section. The input and output widths are not
    settings: the CSV columns fix them (``dataset.INPUT_FIELDS`` and
    ``TARGET_FIELDS``)."""

    hidden_dim: int
    dense_dim: int
    learning_rate: float
    grad_clip: float | None   # max global grad norm, None = off

    SCHEMA = EXPERIMENT_SCHEMA["properties"]["model"]["properties"]

    def __post_init__(self) -> None:
        check_fields(self, self.SCHEMA)


@dataclass
class ModelParams:
    """All weights. ``lstm`` (4 hidden, input + hidden + 1) is [w | u | b]:
    the LSTM's input weights, recurrent weights and biases side by side,
    its rows stacked by gate in the order i, f, o, g. The head is w1
    (dense, hidden), b1, w2 (output, dense) and b2."""

    lstm: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def items(self):
        for f in dataclasses.fields(self):
            yield f.name, getattr(self, f.name)


# Gradients share the ModelParams layout: one array per parameter.
Gradients = ModelParams


def zeros_params(cfg: ModelConfig) -> ModelParams:
    h, d = cfg.hidden_dim, len(INPUT_FIELDS)
    dn, out = cfg.dense_dim, len(TARGET_FIELDS)
    z = np.zeros
    return ModelParams(lstm=z((4 * h, d + h + 1)), w1=z((dn, h)), b1=z(dn), w2=z((out, dn)), b2=z(out))


def _glorot(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    """Uniform Glorot weights, drawn in row-major order."""
    limit = math.sqrt(6.0 / (rows + cols))
    return np.array([rng.uniform(-limit, limit) for _ in range(rows * cols)]).reshape(rows, cols)


def init_model(cfg: ModelConfig, rng: SeededRng) -> ModelParams:
    """Glorot weights drawn in a fixed order (the four input gates, the four
    recurrent gates, w1, w2); zero biases except the forget gate's at 1 so
    gradients flow through long windows from the start."""
    h, d = cfg.hidden_dim, len(INPUT_FIELDS)
    params = zeros_params(cfg)
    gates = params.lstm.reshape(4, h, d + h + 1)  # a view: gate k's rows of [w | u | b]
    for k in range(4):
        gates[k, :, :d] = _glorot(h, d, rng)
    for k in range(4):
        gates[k, :, d:-1] = _glorot(h, h, rng)
    params.w1 = _glorot(cfg.dense_dim, h, rng)
    params.w2 = _glorot(len(TARGET_FIELDS), cfg.dense_dim, rng)
    gates[1, :, -1] = 1.0
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
    """Activations retained for backpropagation through time, hidden-major
    as the step routine leaves them: the cell and hidden states at the
    segment ends, steps K - 1, 2K - 1, ... and T - 1 for K = _segment(T),
    and the gates if their (T, 4, H, B) block fits in GATE_CACHE_BYTES.
    BPTT recomputes the other states one segment at a time, from the
    gates or by replaying the segment's steps, and tanh(c) and h one step
    at a time as tanh(c) and o * tanh(c); a segment's first step takes
    its h_prev from the end of the one before. The windows are not kept:
    ``backward``, the one caller that keeps a cache, holds them already."""

    gates: np.ndarray | None   # (T, 4, H, B) gates i, f, o and candidate g, if they fit
    c_ends: np.ndarray    # (ceil(T / K), H, B) segment-end cell states
    h_ends: np.ndarray    # (ceil(T / K), H, B) segment-end hidden states; the last is the final h
    dense: np.ndarray     # (B, dense) tanh layer output


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
    dim = params.lstm.shape[1] - params.lstm.shape[0] // 4 - 1
    if inputs.shape[-1] != dim:
        raise ValueError(f"input_dim {inputs.shape[-1]} does not match model input_dim {dim}")
    return inputs


def _sigmoid_inplace(x: np.ndarray, e: np.ndarray) -> None:
    """Sigmoid of finite x into x, with e a scratch buffer of x's shape.

    Four passes, 1 / (1 + exp(-x)), bit-identical to
    linalg.activation(SIGMOID, x). Below x = -709.78, exp(-x) overflows
    to inf and the result is 0, the limit (the exact value is below
    5.6e-309), so the caller runs it under np.errstate(over="ignore").
    """
    np.negative(x, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.divide(1.0, e, out=x)


def _segment(steps: int) -> int:
    """BPTT segment length for a ``steps``-step window: ceil(sqrt(steps)),
    which keeps the segment-end states and one segment's recomputed
    states both near sqrt(steps) (H, B) arrays."""
    return math.isqrt(steps - 1) + 1


def _stepper(params: ModelParams, batch: int):
    """The LSTM step for ``batch`` rows that the forward pass and BPTT's
    replay share, so a replayed step has the forward's bits. Returns
    (step, h): step(x_t, c_prev, c, z, check) writes the gates into z, a
    contiguous (4, H, B) block, the cell state f * c_prev + i * g into c
    (which may be c_prev itself) and advances h in place, where h is the
    (H, B) hidden state, zero until the caller writes it.

    The four gate pre-activations are one GEMM, [w | u | b] @ [x_t; h; 1]:
    ``params.lstm`` as it is stored times one (D + H + 1, B) operand
    whose h rows are the state itself, so the step writes h straight
    into its next product and the bias rides on the operand's row of
    ones. The gates come out hidden-major, each a contiguous (H, B)
    block. One (3, H, B) scratch block holds the sigmoid's exp, then
    i * g in its first row, then tanh(c) there. With check, a non-finite
    sum returns False. The sigmoid's exp may overflow to inf, so callers
    run the step under np.errstate(over="ignore")."""
    hidden = params.lstm.shape[0] // 4
    operand = np.zeros((params.lstm.shape[1], batch))
    operand[-1] = 1.0
    x_rows, h = operand[: -hidden - 1], operand[-hidden - 1 : -1]
    scratch = np.empty((3, hidden, batch))
    work = scratch[0]

    def step(x_t, c_prev, c, z, check) -> bool:
        x_rows[:] = x_t.T
        np.matmul(params.lstm, operand, out=z.reshape(4 * hidden, batch))
        if check and not np.isfinite(z).all():
            return False
        _sigmoid_inplace(z[:3], scratch)
        np.tanh(z[3], out=z[3])
        i, f, o, g = z
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=work)
        c += work
        np.tanh(c, out=work)
        np.multiply(o, work, out=h)  # h's old value is spent in the product
        return True

    return step, h


def _forward(
    params: ModelParams, inputs: np.ndarray, keep_cache: bool, first_row: int = 0
) -> tuple[np.ndarray, ForwardCache | None]:
    """The LSTM forward pass over a shape-checked (B, T, D) batch.

    The windows and weights are bounded once per call, by two reductions
    each that make no temporary. As h = o * tanh(c) lies in [-1, 1] and
    the operand's last row is 1, no gate pre-activation of any step
    exceeds |lstm|.max() * (D + H + 1) * max(|inputs|.max(), 1). When that
    bound is far below the float64 maximum, no step checks its gates;
    otherwise each step checks its four gate pre-activations, as a
    non-finite or huge weight, bias or state makes the step's product
    non-finite, so the pass fails at the step where it first overflows.
    With keep_cache, c and h are copied out at each segment end, and the
    gates are written straight into the BPTT cache if it keeps them; h,
    c and otherwise the gates are scratch buffers updated in place. A
    failed check raises ``NonFiniteError`` naming the batch rows
    involved, numbered from ``first_row``.
    """
    x_max = max(inputs.max(), -inputs.min())  # NaN if the windows hold one
    if not math.isfinite(x_max):
        raise _non_finite("windows contain", inputs, first_row)
    w_max = max(params.lstm.max(), -params.lstm.min())
    bound = float(w_max) * params.lstm.shape[1] * max(float(x_max), 1.0)
    # the GEMM's rounding adds a relative (D + H + 1) * 2^-53 at most, far
    # inside the margin to 1.8e308; a NaN weight fails the comparison
    check = not bound < 1e300
    batch, steps, _ = inputs.shape
    step, h = _stepper(params, batch)
    shape = h.shape
    c = np.zeros(shape)
    gates_s = None
    if keep_cache:
        segment = _segment(steps)
        c_ends = np.empty((-(-steps // segment),) + shape)
        h_ends = np.empty_like(c_ends)
        if 4 * steps * h.nbytes <= GATE_CACHE_BYTES:
            gates_s = np.empty((steps, 4) + shape)
    if gates_s is None:
        z = np.empty((4,) + shape)

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if gates_s is not None:
                z = gates_s[t]
            if not step(inputs[:, t, :], c, c, z, check):
                raise _non_finite(
                    f"LSTM step {t}: gate pre-activation contains", z.transpose(2, 0, 1), first_row
                )
            if keep_cache and ((t + 1) % segment == 0 or t == steps - 1):
                c_ends[t // segment] = c
                h_ends[t // segment] = h

        pre_dense = h.T @ params.w1.T + params.b1
        if not np.isfinite(pre_dense).all():
            raise _non_finite("dense layer pre-activation contains", pre_dense, first_row)
        dense = np.tanh(pre_dense)
        outputs = dense @ params.w2.T + params.b2
        if not np.isfinite(outputs).all():
            raise _non_finite("output layer contains", outputs, first_row)

    if not keep_cache:
        return outputs, None
    return outputs, ForwardCache(gates_s, c_ends, h_ends, dense)


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
    that end at ``rows``, one output row per entry of ``rows``. The rows
    must be integers (a float row is refused, not truncated) and
    ``window_len`` at least 1.

    The windows run in independent chunks of ``CHUNK``, dealt out as one
    contiguous block of chunks per usable CPU: the calling thread takes
    the first block and helper threads the others. Each chunk writes its
    rows of the output; the error reported is the lowest failing chunk's
    whatever the CPU count. Each worker gathers its own chunk from the
    series, so at most one chunk per worker is ever stacked. The gather is
    step-major, because the kernel reads one step of all the chunk's
    windows at a time: with two workers, batch-major chunks made a
    paper-shape evaluation about 15 % slower than one whole-set stack,
    and step-major chunks did not. A chunk's result
    does not depend on the thread that computes it, so the output is
    bit-identical for any CPU count; the chunk size does change bits.
    """
    inputs = _check_inputs(params, inputs, 2)
    rows = integer_rows(rows, "predict_batch rows")
    if len(rows) == 0:
        raise ValueError("predict_batch: empty batch")
    starts = range(0, len(rows), CHUNK)
    workers = min(len(starts), _usable_cpus())
    per_worker = -(-len(starts) // workers)
    blocks = [starts[j : j + per_worker] for j in range(0, len(starts), per_worker)]

    outputs = np.empty((len(rows), len(params.b2)))

    def run(block: range) -> None:
        for start in block:  # no name holds a chunk's stack while the next is gathered
            outputs[start : start + CHUNK] = _forward(
                params, stack_steps(inputs, rows[start : start + CHUNK], window_len).transpose(1, 0, 2),
                keep_cache=False, first_row=start,
            )[0]

    with ThreadPoolExecutor(max(len(blocks) - 1, 1)) as pool:  # no thread until a submit
        helpers = pool.map(run, blocks[1:])  # submitted at once, their errors raised in order
        run(blocks[0])
        list(helpers)
    return outputs


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch MSE: per-output column means, total defined as their mean.
    A total that is not finite raises ``NonFiniteError`` naming the rows
    whose squared error is not finite."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(f"mse_loss: shape mismatch {predictions.shape} vs {targets.shape}")
    if predictions.ndim != 2 or predictions.shape[0] == 0:
        raise ValueError(f"mse_loss: need a nonempty (n, outputs) batch, got {predictions.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        squared = np.square(predictions - targets)
        per_output = np.mean(squared, axis=0)
        loss = float(np.mean(per_output))
    if not math.isfinite(loss):
        raise _non_finite("squared errors or their mean contain", squared, 0)
    return loss, per_output


def backward(params: ModelParams, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, Gradients]:
    """Loss and exact gradients of the batch-mean MSE through the window.

    Backward recurrence per step (dh, dc carry into earlier steps):

        do = dh * tanh(c);        dc += dh * o * (1 - tanh(c)^2)
        di = dc * g;  df = dc * c_prev;  dg = dc * i
        dh_prev = U^T @ d_pre;    dc_prev = dc * f

    The loop runs in place on preallocated hidden-major (H, B) buffers.
    At the last step of each segment it recomputes the cell states
    before that step in the segment, from the cached state before the
    segment (the zero state before the first): as f * c_prev + i * g
    with the forward pass's operations in its order, or, without kept
    gates, by replaying the steps into one (K, 4, H, B) buffer and the
    segment's K + 1 cell-state rows. Either way the segment's gates are
    one local view, row k for step start + k. tanh(c_prev) is recomputed
    once per step and carried into the next as tanh(c); h_prev is
    o_prev * tanh(c_prev) from that view after a segment's first step,
    and at its first step the kept h of the segment before (zero at
    step 0). a (1 - a) of the sigmoid gates i, f and o is one pass over
    their (3, H, B) block.
    Each step issues two GEMMs on the (4H, B) gate deltas d_pre: d_pre
    times the step's batch-major (B, D + H + 1) operand [x_t, h_prev, 1],
    the gradient of ``lstm`` (h_prev is written through a transposed
    view, so neither operand of the product is transposed); and the
    transpose of lstm's (4H, H) recurrent block, a strided view, times
    d_pre, which is dh_prev.
    """
    inputs = _check_inputs(params, inputs, 3)
    if inputs.shape[0] == 0:
        raise ValueError("backward: empty batch")
    outputs, cache = _forward(params, inputs, keep_cache=True)
    targets = np.asarray(targets, dtype=np.float64)

    loss, _ = mse_loss(outputs, targets)

    batch, steps, dim = inputs.shape
    hidden = params.lstm.shape[0] // 4
    n_out = targets.shape[1]

    # head
    d_out = 2.0 * (outputs - targets) / (batch * n_out)
    d_dense = d_out @ params.w2
    d_z1 = d_dense * (1.0 - cache.dense * cache.dense)
    dh = np.ascontiguousarray((d_z1 @ params.w1).T)

    # unrolled LSTM; da holds the gate pre-activation deltas in gate order,
    # s a factor of one of them
    shape = (hidden, batch)
    dc = np.zeros(shape)
    da = np.empty((4,) + shape)
    d_pre = da.reshape(4 * hidden, batch)     # da with the gates stacked
    s, tc_prev = np.empty((2,) + shape)
    operand = np.empty((batch, dim + hidden + 1))  # [x_t, h_prev, 1], batch-major
    operand[:, -1] = 1.0
    h_prev = operand[:, dim : dim + hidden].T      # hidden-major view
    u_t = params.lstm[:, dim : dim + hidden].T
    d_lstm = np.zeros_like(params.lstm)
    d_step = np.empty_like(d_lstm)
    segment = _segment(steps)
    c_seg = np.empty((segment + 1,) + shape)  # c_seg[k] is c_{t-1} at k = t % segment
    if cache.gates is None:
        replayed = np.empty((segment, 4) + shape)
        step, h_run = _stepper(params, batch)
    tc = np.tanh(cache.c_ends[-1])
    for t in range(steps - 1, -1, -1):
        k = t % segment
        if t == steps - 1 or k == segment - 1:
            # a segment's last step: recompute the states before it in the
            # segment from the cached one before the segment
            start = t - k
            c_seg[0] = cache.c_ends[start // segment - 1] if start else 0.0
            if cache.gates is not None:
                gates = cache.gates[start : start + segment]  # gates[k] are step t's gates
                for j in range(k):
                    i, f, _, g = gates[j]
                    np.multiply(f, c_seg[j], out=c_seg[j + 1])
                    np.multiply(i, g, out=s)
                    c_seg[j + 1] += s
            else:
                gates = replayed
                h_run[:] = cache.h_ends[start // segment - 1] if start else 0.0
                with np.errstate(over="ignore"):  # the sigmoid's exp, as in the forward
                    for j in range(k + 1):
                        step(inputs[:, start + j, :], c_seg[j], c_seg[j + 1], gates[j], check=False)
        z = gates[k]
        i, f, o, g = z
        c_prev = c_seg[k]
        np.tanh(c_prev, out=tc_prev)
        if k:
            np.multiply(gates[k - 1, 2], tc_prev, out=h_prev)
        else:  # a segment's first step: the h kept at the end of the one before
            h_prev[:] = cache.h_ends[t // segment - 1] if t else 0.0
        operand[:, :dim] = inputs[:, t, :]

        np.subtract(1.0, z[:3], out=da[:3])   # a (1 - a) for i, f and o
        da[:3] *= z[:3]
        np.multiply(dh, tc, out=s)            # da_o = (o (1 - o)) * (dh * tc)
        da[2] *= s
        dh *= o                               # dc += (dh * o) * (1 - tc^2); dh is spent
        np.multiply(tc, tc, out=s)
        np.subtract(1.0, s, out=s)
        dh *= s
        dc += dh
        np.multiply(dc, g, out=s)             # da_i = (i (1 - i)) * (dc * g)
        da[0] *= s
        np.multiply(dc, c_prev, out=s)        # da_f = (f (1 - f)) * (dc * c_prev)
        da[1] *= s
        np.multiply(dc, i, out=da[3])         # da_g = (dc * i) * (1 - g^2)
        np.multiply(g, g, out=s)
        np.subtract(1.0, s, out=s)
        da[3] *= s

        d_lstm += np.matmul(d_pre, operand, out=d_step)
        np.matmul(u_t, d_pre, out=dh)
        dc *= f
        tc, tc_prev = tc_prev, tc

    return loss, Gradients(
        lstm=d_lstm,
        w1=d_z1.T @ cache.h_ends[-1].T,
        b1=d_z1.sum(axis=0),
        w2=d_out.T @ cache.dense,
        b2=d_out.sum(axis=0),
    )


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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
