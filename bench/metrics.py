"""Every metric the benchmark prints: name -> (unit, better).

``END_TO_END`` is what ``--trace 0`` reports, ``PER_LAYER`` what
``--trace 1`` reports; BENCHMARK.json lists the same names and units.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "checkpoint_mb": ("MiB", "lower"),
}

# Printed beside the end-to-end metrics but not bounded: error_rate is 0 on
# a correct run (``failed``/``attempted`` carry it); final_mse and
# transfer_ratio vary by tens of percent between input seeds, and the output
# check already holds them to the pinned reference within check.RTOL.
REPORTED = {
    "error_rate": "failed/attempted",
    "final_mse": "1",
    "transfer_ratio": "ratio",
}

MODULES = ("experiment", "csvio", "dataset", "trainer", "model", "linalg", "memory", "rng", "checkpoint")

PER_LAYER = {
    # set-up: one traced generate + build_phases
    "climate.generate_series_s": ("s", "lower"),
    "csvio.write_records_s": ("s", "lower"),
    "csvio.read_records_s": ("s", "lower"),
    "csvio.records_per_s": ("1/s", "higher"),
    "dataset.build_samples_s": ("s", "lower"),
    "dataset.windows": ("count", "lower"),
    "dataset.clamps": ("count", "lower"),
    "experiment.build_phases_self_s": ("s", "lower"),
    # the traced `ghreplay run` command
    "linalg.matmul_calls_per_update": ("count", "lower"),
    "linalg.activation_calls_per_update": ("count", "lower"),
    "linalg.matmul_self_s": ("s", "lower"),
    "linalg.activation_self_s": ("s", "lower"),
    "model.predict_batch_s_per_call": ("s", "lower"),
    "model.predict_windows_per_s": ("1/s", "higher"),
    "model.flops_per_eval": ("computed_flop", "lower"),
    "model.bytes_per_eval": ("computed_B", "lower"),
    "model.gflops_eval": ("GFLOP/s", "higher"),
    "model.backward_s_per_call": ("s", "lower"),
    "model.adam_step_s_per_call": ("s", "lower"),
    "model.flops_per_update": ("computed_flop", "lower"),
    "model.bytes_per_update": ("computed_B", "lower"),
    "model.gflops_train": ("GFLOP/s", "higher"),
    "memory.observe_batch_s_per_call": ("s", "lower"),
    "memory.draw_replay_s_per_call": ("s", "lower"),
    "memory.occupancy_stats_s_per_call": ("s", "lower"),
    "memory.fill": ("share", "higher"),
    "rng.draws_per_update": ("count", "lower"),
    "trainer.train_update_self_s": ("s", "lower"),
    "trainer.stack_samples_s": ("s", "lower"),
    "trainer.evaluate_s_per_call": ("s", "lower"),
    "trainer.eval_share": ("share", "lower"),
    "trainer.updates": ("count", "lower"),
    "trainer.evals": ("count", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    **{f"{module}.self_s": ("s", "lower") for module in MODULES},
    "trace.run_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_share": ("share", "lower"),
}
