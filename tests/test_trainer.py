import copy
import dataclasses
import statistics
import tracemalloc

import numpy as np
import pytest
from conftest import lstm_blocks, memory_config, model_config

from ghreplay import model, trainer
from ghreplay.dataset import Phase, stack_samples, stack_steps
from ghreplay.experiment import boundaries_path_for
from ghreplay.memory import EpisodicMemory
from ghreplay.model import init_adam, init_model, zeros_params
from ghreplay.rng import SeededRng
from ghreplay.trainer import (
    EvalPoint,
    LearningCurve,
    ScenarioConfig,
    TrainerState,
    compare_transfer,
    evaluate,
    read_boundaries_csv,
    read_curve_csv,
    run_baseline,
    run_phase,
    run_scenario,
    train_update,
    write_boundaries_csv,
    write_curve_csv,
)

MODEL_CFG = model_config(hidden_dim=8, dense_dim=8, learning_rate=1e-2)
MEM_CFG = memory_config(capacity=500, substitution_probability=0.1, window_len=10)


def synthetic_windows(n, label="GH-X", window_len=10, seed=0):
    """A random series streaming n windows at stride 1."""
    rng = SeededRng(seed)
    records = n + window_len - 1
    inputs = np.array([[rng.random() for _ in range(5)] for _ in range(records)])
    targets = np.array([[rng.random(), rng.random()] for _ in range(records)])
    timestamps = 300 * np.arange(records, dtype=np.int64)
    return Phase(label, inputs, targets, timestamps, np.arange(window_len - 1, records), [], window_len)


def synthetic_stream(state, n, label="GH-X", seed=0):
    """Table rows of n new windows, appended to ``state``'s memory table."""
    windows = synthetic_windows(n, label=label, seed=seed)
    return state.memory.add_series(windows) + windows.stream


def fresh_state(seed=0, memory_cfg=None):
    root = SeededRng(seed)
    return TrainerState(
        params=init_model(MODEL_CFG, root.split("init")),
        adam=init_adam(MODEL_CFG),
        memory=EpisodicMemory(memory_cfg or dataclasses.replace(MEM_CFG)),
        replay_rng=root.split("replay"),
        memory_rng=root.split("memory"),
    )


def make_phase(n_stream, n_test, label="GH-X", seed=0):
    windows = synthetic_windows(n_stream + n_test, label=label, seed=seed)
    return Phase.split(windows, range(n_stream, n_stream + n_test))


def held_out_phase(targets, fill=0.5, window_len=10):
    """A phase of constant ``fill`` inputs and no stream whose test windows,
    at stride 1, have ``targets``."""
    records = len(targets) + window_len - 1
    all_targets = np.zeros((records, 2))
    all_targets[window_len - 1 :] = targets
    return Phase(label="GH-X", inputs=np.full((records, 5), fill), targets=all_targets,
                 timestamps=np.arange(records), stream=[],
                 test_set=np.arange(window_len - 1, records), window_len=window_len)


# --- phase validation --------------------------------------------------------

def test_phase_rejects_overlapping_test_set():
    w = synthetic_windows(10)
    with pytest.raises(ValueError, match="overlaps"):
        Phase(label="GH-X", inputs=w.inputs, targets=w.targets, timestamps=w.timestamps,
              stream=w.stream, test_set=w.stream[:2], window_len=10)


def test_phase_rejects_rows_that_end_no_whole_window():
    w = synthetic_windows(10)
    for bad in (w.stream - 1, w.stream + 1):
        with pytest.raises(ValueError, match=r"rows must lie in \[9, 19\)"):
            Phase(label="GH-X", inputs=w.inputs, targets=w.targets, timestamps=w.timestamps,
                  stream=bad, test_set=[], window_len=10)


@pytest.mark.parametrize("window_len", [0, -3])
def test_phase_rejects_a_window_len_below_one(window_len):
    w = synthetic_windows(10)
    with pytest.raises(ValueError, match=f"^phase GH-X: stream rows: window_len must be at least 1, "
                                         f"got {window_len}$"):
        Phase(label="GH-X", inputs=w.inputs, targets=w.targets, timestamps=w.timestamps,
              stream=[], test_set=[], window_len=window_len)


@pytest.mark.parametrize("field", ["stream", "test_set"])
def test_phase_rejects_float_rows(field):
    # the rows [9.9, 12.2] used to be stored as [9, 12]
    w = synthetic_windows(10)
    rows = {"stream": [], "test_set": [], field: [9.9, 12.2]}
    with pytest.raises(ValueError, match=f"^phase GH-X: {field.replace('_', ' ')} rows must be "
                                         f"integers, got dtype float64$"):
        Phase(label="GH-X", inputs=w.inputs, targets=w.targets, timestamps=w.timestamps,
              window_len=10, **rows)


def test_phase_split_keeps_temporal_order_and_is_read_only():
    phase = Phase.split(synthetic_windows(10), [7, 2, 4])
    assert phase.test_set.tolist() == [11, 13, 16]
    assert phase.stream.tolist() == [9, 10, 12, 14, 15, 17, 18]
    with pytest.raises(ValueError):
        phase.stream[0] = 10


def test_phase_split_counts_held_out_windows_and_resplits_them():
    phase = Phase.split(synthetic_windows(10), [7, 2, 4])
    assert len(phase) == 10
    again = phase.split([0, 9])  # positions over all ten windows, held-out ones included
    assert again.test_set.tolist() == [9, 18]
    assert again.stream.tolist() == [10, 11, 12, 13, 14, 15, 16, 17]
    assert again.label == "GH-X" and np.shares_memory(again.inputs, phase.inputs)
    assert len(phase.test_set) == 3  # the original is kept


def test_memory_add_series_appends_the_phase_series():
    state = fresh_state()
    first, second = make_phase(5, 3, label="GH-A", seed=1), make_phase(4, 2, label="GH-B", seed=2)
    assert state.memory.add_series(first) == 0
    assert state.memory.add_series(second) == len(first.timestamps)
    assert np.array_equal(state.memory.inputs, np.concatenate([first.inputs, second.inputs]))
    assert np.array_equal(state.memory.timestamps, np.concatenate([first.timestamps, second.timestamps]))
    assert state.memory.labels == ["GH-A", "GH-B"]
    assert state.memory.row_label_ids.tolist() == [0] * len(first.timestamps) + [1] * len(second.timestamps)


def test_stack_samples_equals_stacked_window_slices():
    w = synthetic_windows(40)
    rows = np.array([30, 9, 9, 48, 20])
    inputs, targets = stack_samples(w.inputs, w.targets, rows, 10)
    assert inputs.shape == (5, 10, 5)
    assert np.array_equal(inputs, np.stack([w.inputs[r - 9 : r + 1] for r in rows]))
    assert np.array_equal(targets, w.targets[rows])
    # step-major: the (B, T, D) windows are a view of a C-contiguous (T, B, D) gather
    assert inputs.transpose(1, 0, 2).flags.c_contiguous and not inputs.flags.owndata
    steps = stack_steps(w.inputs, rows, 10)
    assert steps.flags.c_contiguous and np.array_equal(steps, inputs.transpose(1, 0, 2))
    for bad in ([8], [49]):  # would start before row 0 / end past the last row
        with pytest.raises(ValueError, match=r"rows must lie in \[9, 49\)"):
            stack_samples(w.inputs, w.targets, np.array(bad), 10)
        with pytest.raises(ValueError, match=r"rows must lie in \[9, 49\)"):
            stack_steps(w.inputs, np.array(bad), 10)


# --- train_update ------------------------------------------------------------

@pytest.fixture
def trained_batch_sizes(monkeypatch):
    """The number of windows in each batch that reaches ``backward``."""
    sizes = []

    def recording_backward(params, inputs, targets):
        sizes.append(len(inputs))
        return model.backward(params, inputs, targets)

    monkeypatch.setattr(trainer, "backward", recording_backward)
    return sizes


def test_first_update_has_no_replay(trained_batch_sizes):
    state = fresh_state()
    loss = train_update(state, synthetic_stream(state, 20), MODEL_CFG, replay_size=100)
    assert trained_batch_sizes == [20]
    assert isinstance(loss, float) and loss > 0.0
    assert len(state.memory) == 20


def test_replay_size_zero_is_pure_online(trained_batch_sizes):
    state = fresh_state()
    for start in range(3):
        train_update(state, synthetic_stream(state, 20, seed=start), MODEL_CFG, replay_size=0)
    assert trained_batch_sizes == [20, 20, 20]


def test_combined_minibatch_size_after_warmup(trained_batch_sizes):
    state = fresh_state()
    train_update(state, synthetic_stream(state, 100, seed=1), MODEL_CFG, replay_size=100)
    train_update(state, synthetic_stream(state, 100, seed=2), MODEL_CFG, replay_size=100)
    assert trained_batch_sizes == [100, 100 + 100]
    # partially filled memory caps the draw at the 30 samples it stores
    state2 = fresh_state()
    train_update(state2, synthetic_stream(state2, 30, seed=3), MODEL_CFG, replay_size=100)
    train_update(state2, synthetic_stream(state2, 30, seed=4), MODEL_CFG, replay_size=100)
    assert trained_batch_sizes[2:] == [30, 30 + 30]


def test_replay_drawn_before_new_batch_enters_memory():
    state = fresh_state()
    first = synthetic_stream(state, 10, label="first", seed=5)
    second = synthetic_stream(state, 10, label="second", seed=6)
    train_update(state, first, MODEL_CFG, replay_size=8)
    # during the second update the memory contains only `first`
    replay = state.memory.draw_replay(8, SeededRng(state.replay_rng.seed))
    assert np.isin(replay, first).all()
    train_update(state, second, MODEL_CFG, replay_size=8)
    assert len(state.memory) == 20


def test_train_update_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        train_update(fresh_state(), [], MODEL_CFG, replay_size=0)


def test_train_update_rejects_float_rows():
    state = fresh_state()
    rows = synthetic_stream(state, 3)
    with pytest.raises(ValueError, match="^train_update rows must be integers, got dtype float64$"):
        train_update(state, rows + 0.5, MODEL_CFG, replay_size=0)
    assert state.adam.t == 0 and len(state.memory) == 0


def test_train_update_clips_the_gradients_it_hands_to_adam(monkeypatch):
    norms = []

    def recording_adam_step(params, grads, adam, cfg):
        norms.append(np.sqrt(sum(float(np.sum(g * g)) for _, g in grads.items())))
        model.adam_step(params, grads, adam, cfg)

    monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
    for cfg in (MODEL_CFG, dataclasses.replace(MODEL_CFG, grad_clip=1e-3)):
        state = fresh_state()  # the same state each time
        train_update(state, synthetic_stream(state, 20), cfg, replay_size=0)
    unclipped, clipped = norms
    assert MODEL_CFG.grad_clip is None and unclipped > 1e-3
    assert clipped <= 1e-3


def test_train_update_divergence_names_greenhouse_and_timestamp():
    state = fresh_state()
    rows = synthetic_stream(state, 3, label="GH-Q", seed=9)
    state.params.w2[:] = 1e200  # finite outputs whose squared errors overflow
    # an overflow warning would fail here, under the suite's RuntimeWarning filter
    with pytest.raises(
        model.NonFiniteError, match=r"^squared errors or their mean contain non-finite values"
    ) as err:
        train_update(state, rows, MODEL_CFG, replay_size=0)
    assert err.value.rows.tolist() == [0, 1, 2]
    # the series' row 9 ends its first window, at timestamp 300 * 9
    assert "('GH-Q', 2700), ('GH-Q', 3000), ('GH-Q', 3300)" in str(err.value)


def _overflow_w2(params):
    params.w2[:] = np.inf


def _nan_in_u(params):
    _, u, _ = lstm_blocks(params)
    u[1, 2, 1] = np.nan


@pytest.mark.parametrize(
    "poison, check",
    [(_overflow_w2, "output layer"), (_nan_in_u, "LSTM step 0: gate pre-activation")],
    ids=["inf-w2", "nan-u"],
)
def test_train_update_kernel_check_names_greenhouse_and_timestamp(poison, check):
    state = fresh_state()
    rows = synthetic_stream(state, 3, label="GH-Q", seed=9)
    poison(state.params)
    with pytest.raises(model.NonFiniteError, match=f"^{check} contains non-finite values") as err:
        train_update(state, rows, MODEL_CFG, replay_size=0)
    assert isinstance(err.value, ValueError)
    assert err.value.rows.tolist() == [0, 1, 2]
    assert "in batch rows [0, 1, 2]" in str(err.value)
    assert "('GH-Q', 2700), ('GH-Q', 3000), ('GH-Q', 3300)" in str(err.value)


# --- evaluate ----------------------------------------------------------------

def test_evaluate_perfect_model_is_zero():
    params = zeros_params(MODEL_CFG)
    params.b2[:] = [0.3, 0.6]
    test = held_out_phase(np.tile([0.3, 0.6], (5, 1)), fill=0.0)
    assert evaluate(params, test) == (0.0, 0.0, 0.0)


def test_evaluate_constant_half_predictor_near_one_twelfth():
    # zero weights with b2 = 0.5 predict [0.5, 0.5] for any window
    params = zeros_params(MODEL_CFG)
    params.b2[:] = 0.5
    rng = SeededRng(7)
    targets = np.array([[rng.random(), rng.random()] for _ in range(1000)])
    total, _, _ = evaluate(params, held_out_phase(targets))
    assert abs(total - 1.0 / 12.0) < 0.005


def test_evaluate_total_is_mean_of_outputs():
    params = zeros_params(MODEL_CFG)
    params.b2[:] = [0.2, 0.9]
    rng = SeededRng(8)
    targets = np.array([[rng.random(), rng.random()] for _ in range(50)])
    total, transpiration, photosynthesis = evaluate(params, held_out_phase(targets))
    assert total == (transpiration + photosynthesis) / 2.0


def test_evaluate_overflowing_squared_errors_raise_non_finite():
    params = zeros_params(MODEL_CFG)
    params.b2[:] = [0.5, 1e200]  # finite outputs whose squared errors overflow
    with pytest.raises(
        model.NonFiniteError,
        match=r"^squared errors or their mean contain non-finite values in batch rows \[0, 1, 2\]$",
    ):
        evaluate(params, held_out_phase(np.full((3, 2), 0.5)))


def test_evaluate_rejects_empty_test_set():
    with pytest.raises(ValueError, match="empty"):
        evaluate(zeros_params(MODEL_CFG), held_out_phase(np.zeros((0, 2))))


def test_evaluate_never_stacks_the_whole_test_set(monkeypatch):
    # one CPU, so one 512-window chunk (an eighth of the set) is live at a time
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    cfg = model_config(hidden_dim=4, dense_dim=4)
    params = init_model(cfg, SeededRng(12))
    phase = held_out_phase(np.full((4096, 2), 0.5), window_len=250)
    stack_bytes = 4096 * 250 * 5 * 8
    tracemalloc.start()
    try:
        evaluate(params, phase)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 4


# --- run_phase cadence -------------------------------------------------------

def test_run_phase_update_and_eval_counts():
    phase = make_phase(1200, 50)
    scenario = ScenarioConfig(phases=[phase], batch_size=100, replay_size=10, eval_every=3, seed=1)
    state = fresh_state(1)
    curve = LearningCurve()
    run_phase(state, phase, scenario, MODEL_CFG, curve)
    assert state.adam.t == 12
    assert len(curve.points) == 4
    assert [p.update_index for p in curve.points] == [3, 6, 9, 12]
    assert [p.eval_index for p in curve.points] == [1, 2, 3, 4]
    assert curve.phase_starts == [("GH-X", 0)]


def test_run_phase_below_one_batch_does_nothing():
    phase = make_phase(99, 20)
    scenario = ScenarioConfig(phases=[phase], batch_size=100, replay_size=0, eval_every=3, seed=2)
    state = fresh_state(2)
    curve = LearningCurve()
    run_phase(state, phase, scenario, MODEL_CFG, curve)
    assert state.adam.t == 0
    assert curve.points == []


def test_eval_count_matches_floor_rule_across_configs():
    for stream_len, batch, every in ((750, 50, 4), (1000, 100, 3), (430, 30, 5)):
        phase = make_phase(stream_len, 20)
        scenario = ScenarioConfig(
            phases=[phase], batch_size=batch, replay_size=5, eval_every=every, seed=3
        )
        state = fresh_state(3)
        curve = LearningCurve()
        run_phase(state, phase, scenario, MODEL_CFG, curve)
        assert len(curve.points) == (stream_len // batch) // every


# --- scenarios ---------------------------------------------------------------

def test_scenario_boundaries_and_phase_isolation(tiny_phases):
    phase_a, phase_c = tiny_phases
    scenario = ScenarioConfig(
        phases=[phase_a, phase_c], batch_size=50, replay_size=50, eval_every=3, seed=4
    )
    result = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    updates_a = len(phase_a.stream) // 50
    assert result.curve.phase_starts == [("GH-A", 0), ("GH-C", updates_a)]
    for p in result.curve.points:
        expected = "GH-A" if p.update_index <= updates_a else "GH-C"
        assert p.phase == expected


def test_scenario_deterministic(tiny_phases):
    scenario = ScenarioConfig(
        phases=list(tiny_phases), batch_size=50, replay_size=20, eval_every=3, seed=5
    )
    a = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    b = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    assert a.curve == b.curve


def test_run_scenario_refuses_phases_of_another_window_length(tiny_phases):
    scenario = ScenarioConfig(
        phases=list(tiny_phases), batch_size=50, replay_size=20, eval_every=3, seed=5
    )
    for run in (lambda memory_cfg: run_scenario(scenario, MODEL_CFG, memory_cfg),
                lambda memory_cfg: run_baseline(scenario, MODEL_CFG, memory_cfg, "GH-C")):
        with pytest.raises(ValueError, match=r"^phase GH-\w: windows of 10 records, "
                                             r"but the memory stores windows of 11$"):
            run(dataclasses.replace(MEM_CFG, window_len=11))


def test_single_phase_scenario_equals_baseline(tiny_phases):
    phase_a, _ = tiny_phases
    scenario = ScenarioConfig(
        phases=[phase_a], batch_size=50, replay_size=20, eval_every=3, seed=6
    )
    full = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    base = run_baseline(scenario, MODEL_CFG, MEM_CFG, "GH-A")
    assert full.curve.points == base.curve.points
    assert full.curve.phase_starts == base.curve.phase_starts


def test_baseline_equals_first_scenario_segment(tiny_phases):
    scenario = ScenarioConfig(
        phases=list(tiny_phases), batch_size=50, replay_size=50, eval_every=3, seed=7
    )
    full = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    base = run_baseline(scenario, MODEL_CFG, MEM_CFG, "GH-A")
    segment = [p for p in full.curve.points if p.phase == "GH-A"]
    assert segment == base.curve.points  # exact float equality


def test_baseline_offset_aligns_with_scenario(tiny_phases):
    phase_a, phase_c = tiny_phases
    scenario = ScenarioConfig(
        phases=[phase_a, phase_c], batch_size=50, replay_size=50, eval_every=3, seed=8
    )
    offset = len(phase_a.stream) // 50
    base = run_baseline(scenario, MODEL_CFG, MEM_CFG, "GH-C")
    assert base.curve.phase_starts == [("GH-C", offset)]
    assert all(p.update_index > offset for p in base.curve.points)
    full = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    full_c = [p.update_index for p in full.curve.points if p.phase == "GH-C"]
    assert [p.update_index for p in base.curve.points] == full_c


def test_three_phase_curve_has_three_segments_two_switches():
    phases = [make_phase(300, 20, label=f"GH-{i}", seed=20 + i) for i in range(3)]
    scenario = ScenarioConfig(phases=phases, batch_size=50, replay_size=20, eval_every=3, seed=15)
    result = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    assert result.curve.phase_starts == [("GH-0", 0), ("GH-1", 6), ("GH-2", 12)]
    assert {p.phase for p in result.curve.points} == {"GH-0", "GH-1", "GH-2"}
    total_updates = sum(len(p.stream) // 50 for p in phases)
    assert len(result.curve.points) == total_updates // 3


def test_baseline_first_eval_near_zero_predictor_level(tiny_phases):
    """A fresh baseline's first evaluation happens within a couple of
    updates of random init, so its MSE sits near what predicting zeros
    scores (the model head starts at zero output)."""
    phase_a, phase_c = tiny_phases
    scenario = ScenarioConfig(
        phases=[phase_a, phase_c], batch_size=50, replay_size=50, eval_every=3, seed=16
    )
    base = run_baseline(scenario, MODEL_CFG, MEM_CFG, "GH-C")
    targets = phase_c.targets[phase_c.test_set]
    zero_predictor_mse = float(np.mean(targets * targets, axis=0).mean())
    ratio = base.curve.points[0].mse_total / zero_predictor_mse
    assert 0.3 < ratio < 1.7


def test_baseline_seed_sensitivity(tiny_phases):
    phase_a, _ = tiny_phases
    mk = lambda seed: ScenarioConfig(
        phases=[phase_a], batch_size=50, replay_size=20, eval_every=3, seed=seed
    )
    one = run_baseline(mk(1), MODEL_CFG, MEM_CFG, "GH-A")
    two = run_baseline(mk(2), MODEL_CFG, MEM_CFG, "GH-A")
    same = run_baseline(mk(1), MODEL_CFG, MEM_CFG, "GH-A")
    assert one.curve.points != two.curve.points
    assert one.curve.points == same.curve.points


def test_scenario_config_validation():
    phase = make_phase(10, 5)
    for kwargs, message in [
        ({"phases": []}, "ScenarioConfig: need at least one phase"),
        ({"batch_size": 0}, "ScenarioConfig.batch_size: 0 is less than the minimum of 1"),
        ({"replay_size": -1}, "ScenarioConfig.replay_size: -1 is less than the minimum of 0"),
        ({"eval_every": 1.0}, "ScenarioConfig.eval_every: 1.0 is not of type 'integer'"),
        ({"seed": 2**64}, "ScenarioConfig.seed: 18446744073709551616 is greater than the maximum"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**{"phases": [phase], "batch_size": 100, "replay_size": 0,
                              "eval_every": 3, "seed": 9, **kwargs})


def test_baseline_unknown_phase_and_empty_stream():
    phase = make_phase(10, 5)
    scenario = ScenarioConfig(phases=[phase], batch_size=100, replay_size=0, eval_every=3, seed=9)
    with pytest.raises(ValueError, match="unknown phase"):
        run_baseline(scenario, MODEL_CFG, MEM_CFG, "GH-Z")
    # a stream shorter than one batch trains nothing; the CLI refuses such a spec
    result = run_baseline(scenario, MODEL_CFG, MEM_CFG, "GH-X")
    assert result.curve.points == [] and result.state.adam.t == 0


def test_retention_rows_cover_earlier_phases_only(tiny_phases):
    scenario = ScenarioConfig(
        phases=list(tiny_phases), batch_size=50, replay_size=50, eval_every=3, seed=10
    )
    result = run_scenario(scenario, MODEL_CFG, MEM_CFG, retention=True)
    assert result.curve.retention, "expected retention points in phase 2"
    for point in result.curve.retention:
        assert point.train_phase == "GH-C"
        assert point.test_phase == "GH-A"
    switch = result.curve.phase_starts[1][1]
    assert all(p.update_index > switch for p in result.curve.retention)


def test_memory_rows_fractions_per_update(tiny_phases):
    phase_a, _ = tiny_phases
    scenario = ScenarioConfig(
        phases=[phase_a], batch_size=50, replay_size=0, eval_every=3, seed=11
    )
    result = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    updates = len(phase_a.stream) // 50
    # one label only
    assert result.curve.memory == [(k, "GH-A", 1.0) for k in range(1, updates + 1)]


def test_replay_toggle_does_not_change_memory_trajectory(tiny_phases):
    """Replay draws use their own stream, so toggling replay size cannot
    alter what enters the memory, during or after the fill phase."""
    phase_a, phase_c = tiny_phases
    mk = lambda r: ScenarioConfig(
        phases=[phase_a, phase_c], batch_size=50, replay_size=r, eval_every=3, seed=12
    )
    with_replay = run_scenario(mk(50), MODEL_CFG, memory_config(capacity=500, window_len=10))
    without = run_scenario(mk(0), MODEL_CFG, memory_config(capacity=500, window_len=10))
    slots_a = with_replay.state.memory.rows
    slots_b = without.state.memory.rows
    assert len(slots_a) == len(slots_b) == 500
    assert np.array_equal(slots_a, slots_b)  # the same window chosen for every slot


def test_replay_toggle_identical_until_replay_engages(tiny_phases):
    """The first update sees an empty memory, so weights after update 1 are
    identical with and without replay; they diverge at update 2."""
    phase_a, _ = tiny_phases
    results = {}
    for r in (0, 50):
        state = fresh_state(13)
        offset = state.memory.add_series(phase_a)
        batch1 = phase_a.stream[:50] + offset
        batch2 = phase_a.stream[50:100] + offset
        train_update(state, batch1, MODEL_CFG, replay_size=r)
        results[r] = {
            "after1": copy.deepcopy(state.params),
            "state": state,
            "batch2": batch2,
        }
    for (_, a), (_, b) in zip(results[0]["after1"].items(), results[50]["after1"].items()):
        assert np.array_equal(a, b)
    for r in (0, 50):
        train_update(results[r]["state"], results[r]["batch2"], MODEL_CFG, replay_size=r)
    diverged = any(
        not np.array_equal(a, b)
        for (_, a), (_, b) in zip(
            results[0]["state"].params.items(), results[50]["state"].params.items()
        )
    )
    assert diverged


# --- curve CSV and comparison ------------------------------------------------

def test_curve_csv_roundtrip(tmp_path, tiny_phases):
    phase_a, _ = tiny_phases
    scenario = ScenarioConfig(
        phases=[phase_a], batch_size=50, replay_size=10, eval_every=3, seed=14
    )
    result = run_scenario(scenario, MODEL_CFG, MEM_CFG)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, result.curve)
    write_boundaries_csv(boundaries_path_for(path), result.curve)
    assert read_curve_csv(path) == result.curve.points
    assert read_boundaries_csv(boundaries_path_for(path)) == result.curve.phase_starts


def test_curve_csv_writes_numpy_floats_as_numbers(tmp_path):
    # numpy 2's repr of a float64 is np.float64(0.1); the file must hold 0.1
    point = _point(3, "GH-A", np.float64(0.1))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, LearningCurve(points=[point]))
    assert path.read_text().splitlines()[1] == "3,1,GH-A,0.1,0.1,0.1"
    assert read_curve_csv(path) == [_point(3, "GH-A", 0.1)]


def test_curve_csv_with_a_byte_order_mark_reads(tmp_path):
    plain, marked = tmp_path / "curve.csv", tmp_path / "marked.csv"
    write_curve_csv(plain, LearningCurve(points=[_point(3, "GH-A", 0.1), _point(6, "GH-B", 0.2)]))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_curve_csv(marked) == read_curve_csv(plain)


def _point(update, phase, mse):
    return EvalPoint(
        update_index=update,
        eval_index=update // 3,
        phase=phase,
        mse_total=mse,
        mse_transpiration=mse,
        mse_photosynthesis=mse,
    )


def test_compare_identical_curves_is_a_fail_marker():
    run_points = [_point(33, "GH-B", 0.05)]
    rows = compare_transfer(run_points, [("GH-A", 0), ("GH-B", 32)], [("GH-B", run_points)])
    assert rows[0].ratio == 1.0
    assert rows[0].transfer_benefit == "fail"


def test_compare_quarter_ratio_passes():
    run_points = [_point(33, "GH-B", 0.02)]
    base_points = [_point(33, "GH-B", 0.08)]
    rows = compare_transfer(run_points, [("GH-B", 32)], [("GH-B", base_points)])
    assert rows[0].ratio == pytest.approx(0.25)
    assert rows[0].transfer_benefit == "pass"
    assert rows[0].boundary_update == 32


def test_compare_missing_boundary_is_an_error():
    run_points = [_point(33, "GH-B", 0.02)]
    with pytest.raises(ValueError, match="not present"):
        compare_transfer(run_points, [("GH-A", 0)], [("GH-B", run_points)])


def test_compare_cadence_mismatch_is_an_error():
    run_points = [_point(33, "GH-B", 0.02)]
    base_points = [_point(34, "GH-B", 0.08)]
    with pytest.raises(ValueError, match="cadence"):
        compare_transfer(run_points, [("GH-B", 32)], [("GH-B", base_points)])
