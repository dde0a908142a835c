"""Online continual-learning loop and transfer scenarios.

The stream of one greenhouse is consumed in fixed-size batches. Each
update trains on the new batch joined with a replay draw from episodic
memory (drawn *before* the new batch is absorbed), then the test-set MSE
of the current phase is logged every few updates. A scenario chains
phases: one model and one memory persist across the greenhouse switches.
A baseline reruns a single phase with a fresh model and empty memory,
with its update indices offset so its curve overlays the scenario's.
A run records into one ``LearningCurve``: its evaluations, phase starts,
retention evaluations and the memory occupancy after every update; the
CLI writes each part to its own CSV.

Windows travel as integer rows (see ``dataset.Phase``): a phase's
stream and test set are arrays of final-record rows, and when a phase
starts the memory appends its series to its row table, so new and
replayed windows of an update are gathered together by
``stack_samples``.
Evaluation hands the phase's series and test rows to ``predict_batch``,
whose workers gather one chunk of windows at a time: no stack of a
whole test set outlives the call that uses it.

Randomness discipline: one root seed is split into labeled streams
(init / replay / memory), so toggling replay or memory settings never
shifts another consumer's sequence.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .csvio import finite_float, read_table
from .dataset import Phase, integer_rows, stack_samples
from .memory import EpisodicMemory, MemoryConfig
from .model import (
    AdamState,
    ModelConfig,
    ModelParams,
    NonFiniteError,
    adam_step,
    backward,
    clip_gradients,
    init_adam,
    init_model,
    mse_loss,
    predict_batch,
)
from .rng import SeededRng
from .schema import EXPERIMENT_SCHEMA, SpecError, check_fields

_SPEC = EXPERIMENT_SCHEMA["properties"]


@dataclass
class ScenarioConfig:
    phases: list[Phase]
    batch_size: int
    replay_size: int
    eval_every: int
    seed: int

    SCHEMA = {name: _SPEC["scenario"]["properties"][name]
              for name in ("batch_size", "replay_size", "eval_every")} | {"seed": _SPEC["seed"]}

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("ScenarioConfig: need at least one phase")
        check_fields(self, self.SCHEMA)


@dataclass
class EvalPoint:
    """Test MSE on the current phase's test set; the fields, in order, are
    the columns of curve.csv."""

    update_index: int
    eval_index: int
    phase: str
    mse_total: float
    mse_transpiration: float
    mse_photosynthesis: float


@dataclass
class RetentionPoint:
    """Test MSE on an *earlier* phase's test set, logged while training
    later; the fields, in order, are the columns of retention.csv."""

    update_index: int
    eval_index: int
    train_phase: str
    test_phase: str
    mse_total: float
    mse_transpiration: float
    mse_photosynthesis: float


@dataclass
class LearningCurve:
    """What a run records: evaluations on the current phase, where each
    phase starts, evaluations on earlier phases (``retention``) and the
    memory occupancy after every update."""

    points: list[EvalPoint] = field(default_factory=list)
    phase_starts: list[tuple[str, int]] = field(default_factory=list)
    retention: list[RetentionPoint] = field(default_factory=list)
    memory: list[tuple[int, str, float]] = field(default_factory=list)  # (update, label, fraction)


@dataclass
class TrainerState:
    params: ModelParams
    adam: AdamState
    memory: EpisodicMemory
    replay_rng: SeededRng
    memory_rng: SeededRng


@dataclass
class ScenarioResult:
    curve: LearningCurve
    state: TrainerState


def train_update(
    state: TrainerState,
    rows: np.ndarray,
    model_cfg: ModelConfig,
    replay_size: int,
) -> float:
    """One online update on the windows ending at ``rows`` of the memory's
    row table: train on new + replayed windows, then absorb the new batch
    into memory; returns the batch loss. Replay is drawn before absorption
    so a window can never be replayed in the same update that introduces it."""
    memory = state.memory
    rows = integer_rows(rows, "train_update rows")
    if len(rows) == 0:
        raise ValueError("train_update: empty batch")
    n_replay = min(replay_size, len(memory))
    replay = memory.draw_replay(n_replay, state.replay_rng)
    batch = np.concatenate([rows, replay])
    inputs, targets = stack_samples(memory.inputs, memory.targets, batch, memory.config.window_len)
    try:
        loss, grads = backward(state.params, inputs, targets)
    except NonFiniteError as err:
        if not len(err.rows):
            raise
        origins = ", ".join(map(str, memory.origins(batch[err.rows])))
        raise type(err)(f"{err} (samples {origins})", err.rows) from err
    if model_cfg.grad_clip is not None:
        clip_gradients(grads, model_cfg.grad_clip)
    adam_step(state.params, grads, state.adam, model_cfg)
    memory.observe_batch(rows, state.memory_rng)
    return loss


def evaluate(params: ModelParams, phase: Phase) -> tuple[float, float, float]:
    """The total, transpiration and photosynthesis MSE on the phase's test
    set, its windows gathered from the series chunk by chunk."""
    predictions = predict_batch(params, phase.test_set, phase.inputs, phase.window_len)
    total, per_output = mse_loss(predictions, phase.targets[phase.test_set])
    return total, float(per_output[0]), float(per_output[1])


def run_phase(
    state: TrainerState,
    phase: Phase,
    scenario: ScenarioConfig,
    model_cfg: ModelConfig,
    curve: LearningCurve,
    retention_of: list[Phase] = (),
    offset: int = 0,
) -> None:
    """Consume one phase's stream batch by batch into ``curve``: the
    memory occupancy after every update, and every ``eval_every`` updates
    the MSE on the *current* phase's test set, then on each of
    ``retention_of``. An update's index is ``offset`` plus the Adam step
    count after it, so the cadence is global: it carries across phases,
    and a baseline started at ``offset`` evaluates where the scenario
    does. The final partial batch is dropped so every update has the
    same size."""
    stream = phase.stream + state.memory.add_series(phase)
    curve.phase_starts.append((phase.label, offset + state.adam.t))
    n_updates = len(stream) // scenario.batch_size
    for k in range(n_updates):
        batch = stream[k * scenario.batch_size : (k + 1) * scenario.batch_size]
        train_update(state, batch, model_cfg, scenario.replay_size)
        update = offset + state.adam.t
        fractions = state.memory.occupancy_stats()
        for label in sorted(fractions):
            curve.memory.append((update, label, fractions[label]))
        if update % scenario.eval_every == 0:
            eval_index = update // scenario.eval_every
            curve.points.append(EvalPoint(update, eval_index, phase.label,
                                          *evaluate(state.params, phase)))
            for earlier in retention_of:
                curve.retention.append(RetentionPoint(
                    update, eval_index, phase.label, earlier.label,
                    *evaluate(state.params, earlier)))


def _fresh_state(scenario: ScenarioConfig, model_cfg: ModelConfig, memory_cfg: MemoryConfig) -> TrainerState:
    root = SeededRng(scenario.seed)
    return TrainerState(
        params=init_model(model_cfg, root.split("init")),
        adam=init_adam(model_cfg),
        memory=EpisodicMemory(memory_cfg),
        replay_rng=root.split("replay"),
        memory_rng=root.split("memory"),
    )


def run_scenario(
    scenario: ScenarioConfig,
    model_cfg: ModelConfig,
    memory_cfg: MemoryConfig,
    retention: bool = False,
) -> ScenarioResult:
    """Train one model across all phases in order, carrying the memory;
    with ``retention``, also evaluate every earlier phase at each evaluation."""
    state = _fresh_state(scenario, model_cfg, memory_cfg)
    curve = LearningCurve()
    for idx, phase in enumerate(scenario.phases):
        run_phase(state, phase, scenario, model_cfg, curve,
                  retention_of=scenario.phases[:idx] if retention else ())
    return ScenarioResult(curve, state)


def _locate_phase(scenario: ScenarioConfig, phase_label: str) -> tuple[Phase, int]:
    """The named phase and the global update index at which it begins."""
    offset = 0
    for phase in scenario.phases:
        if phase.label == phase_label:
            return phase, offset
        offset += len(phase.stream) // scenario.batch_size
    raise SpecError(f"unknown phase {phase_label!r}, expected one of "
                    f"{', '.join(p.label for p in scenario.phases)}")


def run_baseline(
    scenario: ScenarioConfig,
    model_cfg: ModelConfig,
    memory_cfg: MemoryConfig,
    phase_label: str,
) -> ScenarioResult:
    """Fresh model + empty memory trained on a single named phase, with
    update indices offset so the curve overlays the scenario's."""
    phase, offset = _locate_phase(scenario, phase_label)
    state = _fresh_state(scenario, model_cfg, memory_cfg)
    curve = LearningCurve()
    run_phase(state, phase, scenario, model_cfg, curve, offset=offset)
    return ScenarioResult(curve, state)


# ---------------------------------------------------------------------------
# curve CSV formats

CURVE_COLUMNS = tuple(f.name for f in fields(EvalPoint))
BOUNDARY_COLUMNS = ("phase", "start_update")
RETENTION_COLUMNS = tuple(f.name for f in fields(RetentionPoint))
MEMORY_COLUMNS = ("update_index", "label", "fraction")


def _write_table(path: str | Path, columns: tuple[str, ...], rows) -> None:
    """A header row, then one row per item; ``csv.writer`` writes a float,
    numpy's included, with ``str``, which round-trips."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_curve_csv(path: str | Path, curve: LearningCurve) -> None:
    _write_table(path, CURVE_COLUMNS, map(astuple, curve.points))


def read_curve_csv(path: str | Path) -> list[EvalPoint]:
    converters = (int, int, str, finite_float, finite_float, finite_float)
    return [EvalPoint(*row) for _, row in read_table(path, CURVE_COLUMNS, converters)]


def write_boundaries_csv(path: str | Path, curve: LearningCurve) -> None:
    _write_table(path, BOUNDARY_COLUMNS, curve.phase_starts)


def read_boundaries_csv(path: str | Path) -> list[tuple[str, int]]:
    return [row for _, row in read_table(path, BOUNDARY_COLUMNS, (str, int))]


def write_retention_csv(path: str | Path, curve: LearningCurve) -> None:
    _write_table(path, RETENTION_COLUMNS, map(astuple, curve.retention))


def write_memory_csv(path: str | Path, curve: LearningCurve) -> None:
    _write_table(path, MEMORY_COLUMNS, curve.memory)


# ---------------------------------------------------------------------------
# transferred-vs-fresh comparison

@dataclass
class CompareRow:
    phase: str
    boundary_update: int
    transferred_mse: float
    fresh_mse: float
    ratio: float
    transfer_benefit: str  # "pass" if the transferred model's MSE is below the fresh one's, else "fail"


def compare_transfer(
    run_points: list[EvalPoint],
    run_starts: list[tuple[str, int]],
    baselines: list[tuple[str, list[EvalPoint]]],
) -> list[CompareRow]:
    """Per baseline phase: first post-switch eval of the transferred model
    against the fresh model's first eval, at the same update index."""
    start_by_label = dict(run_starts)
    rows = []
    for label, base_points in baselines:
        if label not in start_by_label:
            raise ValueError(f"phase {label!r} not present in the run's boundaries")
        if not base_points:
            raise ValueError(f"baseline curve for {label!r} has no evaluation points")
        run_first = next((p for p in run_points if p.phase == label), None)
        if run_first is None:
            raise ValueError(f"run curve has no evaluation points in phase {label!r}")
        base_first = base_points[0]
        if base_first.update_index != run_first.update_index:
            raise ValueError(
                f"eval cadence mismatch for {label!r}: run evaluates at update "
                f"{run_first.update_index}, baseline at {base_first.update_index}"
            )
        fresh = base_first.mse_total
        transferred = run_first.mse_total
        ratio = transferred / fresh if fresh > 0 else float("inf")
        rows.append(
            CompareRow(
                phase=label,
                boundary_update=start_by_label[label],
                transferred_mse=transferred,
                fresh_mse=fresh,
                ratio=ratio,
                transfer_benefit="pass" if transferred < fresh else "fail",
            )
        )
    return rows


COMPARE_COLUMNS = tuple(f.name for f in fields(CompareRow))


def write_compare_csv(path: str | Path, rows: list[CompareRow]) -> None:
    _write_table(path, COMPARE_COLUMNS, map(astuple, rows))
