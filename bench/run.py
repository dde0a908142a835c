#!/usr/bin/env python3
"""The ghreplay benchmark: one workload, every metric by name and unit.

    python3 bench/run.py --workload desk-pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a ghreplay source tree; the package is imported
from ``src/``, nothing is installed.

``--trace 0`` (end-to-end): run the workload's ``ghreplay`` commands,
each in its own child process as a user types them, again and again
until ``--seconds`` of runs are spent (at least three times), and report
medians. Before each run, set up the workload's inputs in-process
``SETUPS_PER_RUN`` times (generate the greenhouse CSVs, load them into
phases); ``setup_s`` is the median of these. Every run's outputs are
checked against the pinned reference and against the first run's bytes.

``--trace 1`` (per-layer): the same commands called in-process through
``ghreplay.cli.main``; one untraced pass, then traced passes with every
module's public functions wrapped in spans (see ``tracing.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 2 means the
benchmark could not run at all (no ghreplay source tree, bad arguments).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, MODULES, PER_LAYER, REPORTED
from workloads import WORKLOADS, computed_counts, input_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUPS_PER_RUN = 4          # spread over the runs, so a short burst of host load moves few
MIN_RUNS = {0: 3, 1: 1}      # untraced: a median of three drops one slow repeat
DEADLINE_S = 165.0           # after start; children still running then are killed


def pin_blas_threads() -> None:
    """Pin the BLAS and OpenMP pools of this process and its children to
    one thread; must run before numpy is first imported.

    At these shapes a second OpenBLAS thread does not pay: on a 2-CPU VM,
    paper-eval's ``run``, then with two greenhouses, took 13.5 s with two
    threads and 11.4 s with one (medians of 3), and two threads doubled its CPU time.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# running one command sequence

@dataclass
class CommandRun:
    label: str
    seconds: float
    exit_code: int
    peak_rss_mb: float | None
    outputs: list[Path] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    differs_from_first: bool = False

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[float, int, float]:
    """One ``ghreplay`` command in a child process: (seconds, exit code, peak RSS MiB).
    The child is killed after ``timeout`` seconds."""
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ghreplay.cli", *argv], stdout=fh, stderr=fh, cwd=ROOT
        )
        timer = threading.Timer(max(1.0, timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:       # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_in_process(main, argv: list[str], log: Path) -> tuple[float, int, None]:
    """One ``ghreplay`` command through ``cli.main`` in this process."""
    with log.open("a", encoding="utf-8") as fh, redirect_stdout(fh), redirect_stderr(fh):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return seconds, code, None


def _snapshot(out: Path) -> dict[Path, int]:
    if not out.exists():
        return {}
    return {p: p.stat().st_mtime_ns for p in out.iterdir() if p.is_file()}


def run_sequence(workload, out: Path, spec_path, seed: int, execute) -> list[CommandRun]:
    """Run every command of the workload; each records the files it wrote."""
    runs = []
    for label, argv in workload.commands(out, spec_path, seed):
        before = _snapshot(out)
        seconds, code, rss = execute(label, argv)
        after = _snapshot(out)
        written = sorted(p for p, mtime in after.items() if before.get(p) != mtime)
        runs.append(CommandRun(label, seconds, code, rss, written))
    return runs


def check_sequence(runs: list[CommandRun], reference: dict, first_digests: dict | None) -> dict:
    """Reference and determinism checks; returns {(label, file name): digest}."""
    import check

    digests = {}
    for cmd in runs:
        if cmd.exit_code != 0:
            cmd.problems.append(f"exit code {cmd.exit_code}")
        found = check.check_against_reference(cmd.outputs, reference.get(cmd.label, {}))
        cmd.problems += [f"{name}: {msg}" for name, msgs in found.items() for msg in msgs[:3]]
        for path in cmd.outputs:
            digests[(cmd.label, path.name)] = check.content_digest(path)
    if first_digests is not None:
        for cmd in runs:
            mine = {k: v for k, v in digests.items() if k[0] == cmd.label}
            theirs = {k: v for k, v in first_digests.items() if k[0] == cmd.label}
            for key in sorted(set(mine) | set(theirs)):
                if mine.get(key) != theirs.get(key):
                    cmd.differs_from_first = True
                    cmd.problems.append(f"{key[1]}: not byte-identical to the first run")
    return digests


def read_csv_rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def quality(workload, out: Path) -> dict[str, float]:
    """final_mse (last curve row) and transfer_ratio, printed as info lines;
    the output check already holds both to the pinned reference."""
    values: dict[str, float] = {}
    curve = out / "curve.csv"
    if curve.exists():
        rows = read_csv_rows(curve)
        if rows:
            values["final_mse"] = float(rows[-1]["mse_total"])
    compare = out / "compare.csv"
    if workload.baseline_phase and compare.exists():
        for row in read_csv_rows(compare):
            if row["phase"] == workload.baseline_phase:
                values["transfer_ratio"] = float(row["ratio"])
    return values


# ---------------------------------------------------------------------------
# modes

def resolved_spec(workload, spec_path, seed: int, out: Path) -> dict:
    from ghreplay import experiment

    return experiment.resolve_spec(spec_path, workload.preset, {"seed": seed, "out_dir": str(out)})


def set_up(spec: dict, out: Path):
    """Everything before the first update: write the CSVs, load them into phases."""
    from ghreplay import experiment

    experiment.generate_datasets(spec, out)
    return experiment.build_phases(spec, out)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deterministic = True

    def add(self, runs: list[CommandRun], run_no: int) -> None:
        for cmd in runs:
            self.attempted += 1
            if cmd.failed:
                self.failed += 1
                self.problems += [f"run {run_no} `{cmd.label}`: {p}" for p in cmd.problems]
            self.deterministic &= not cmd.differs_from_first


def keep_going(spent: float, seconds: float, runs_done: int, last: float, minimum: int,
               deadline: float) -> bool:
    """Start another run while it is expected to end within the time budget;
    ``spent`` is the time the runs so far took."""
    if time.perf_counter() + last > deadline:
        return False
    return runs_done < minimum or spent + last <= seconds


def untraced(workload, seed: int, seconds: float, work: Path, reference: dict, deadline: float):
    spec_path = workload.write_spec(work)
    setup_out = work / "setup"
    setup_spec = resolved_spec(workload, spec_path, seed, setup_out)
    setup_times = []

    tally = Tally()
    samples: dict[str, list[float]] = {}
    first_digests = None
    spent = last = 0.0
    run_no = 0
    while keep_going(spent, seconds, run_no, last, MIN_RUNS[0], deadline):
        for _ in range(SETUPS_PER_RUN):
            gc.collect()            # no garbage from the last set-up or check is left to collect
            start = time.perf_counter()
            set_up(setup_spec, setup_out)
            setup_times.append(time.perf_counter() - start)
            shutil.rmtree(setup_out)
        out = work / f"run{run_no}"
        t0 = time.perf_counter()
        runs = run_sequence(
            workload, out, spec_path, seed,
            lambda label, argv: run_child(argv, work / "commands.log", deadline - time.perf_counter()),
        )
        last = time.perf_counter() - t0
        spent += last
        digests = check_sequence(runs, reference, first_digests)
        first_digests = first_digests or digests
        tally.add(runs, run_no)
        by_label = {cmd.label: cmd for cmd in runs}
        measured = {
            "run_s": by_label["run"].seconds,
            "wall_s": sum(cmd.seconds for cmd in runs),
            "peak_rss_mb": by_label["run"].peak_rss_mb,
        }
        if (out / "checkpoint.npz").exists():
            measured["checkpoint_mb"] = (out / "checkpoint.npz").stat().st_size / 2**20
        if not any(cmd.failed for cmd in runs):
            measured.update(quality(workload, out))
        for name, value in measured.items():
            samples.setdefault(name, []).append(value)
        shutil.rmtree(out, ignore_errors=True)
        run_no += 1
    samples["setup_s"] = setup_times
    samples["error_rate"] = [tally.failed / tally.attempted]
    return tally, samples


def traced(workload, seed: int, seconds: float, work: Path, reference: dict, deadline: float):
    import tracing
    from ghreplay import cli

    spec_path = workload.write_spec(work)
    log = work / "commands.log"

    # one traced set-up
    tracer = tracing.Tracer()
    out = work / "setup"
    spec = resolved_spec(workload, spec_path, seed, out)
    with tracing.instrument(tracer):
        _, normalizer = tracer.wrap(set_up, "setup")(spec, out)
    shutil.rmtree(out)
    setup_window = tracer.spans().within(0)
    setup_metrics = setup_layer_metrics(setup_window, normalizer.clamp_count)
    del tracer, setup_window

    tally = Tally()
    counts = computed_counts(spec)
    started = time.perf_counter()
    out = work / "run0"
    runs = run_sequence(workload, out, spec_path, seed,
                        lambda label, argv: run_in_process(cli.main, argv, log))
    first_digests = check_sequence(runs, reference, None)
    tally.add(runs, 0)
    untraced_run_s = next(cmd.seconds for cmd in runs if cmd.label == "run")
    shutil.rmtree(out, ignore_errors=True)

    samples: dict[str, list[float]] = {}
    spent = time.perf_counter() - started
    last = 0.0
    run_no = 1
    while keep_going(spent, seconds, run_no - 1, last, MIN_RUNS[1], deadline):
        out = work / f"run{run_no}"
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracing.instrument(tracer):
            runs = run_sequence(
                workload, out, spec_path, seed,
                lambda label, argv: run_in_process(tracer.wrap(cli.main, f"cli.{label}"), argv, log),
            )
        last = time.perf_counter() - t0
        spent += last
        check_sequence(runs, reference, first_digests)
        tally.add(runs, run_no)
        spans = tracer.spans()
        del tracer
        roots = spans.roots("cli.run")
        if roots and not any(cmd.failed for cmd in runs):
            checkpoint = out / "checkpoint.npz"
            size = checkpoint.stat().st_size if checkpoint.exists() else 0
            layer = run_layer_metrics(spans.within(roots[0]), counts, spec, size)
            layer["trace.overhead_share"] = layer["trace.run_s"] / untraced_run_s - 1.0
            for name, value in layer.items():
                samples.setdefault(name, []).append(value)
        del spans
        shutil.rmtree(out, ignore_errors=True)
        run_no += 1
    for name, value in setup_metrics.items():
        samples[name] = [value]
    samples["untraced_run_s"] = [untraced_run_s]
    return tally, samples


def setup_layer_metrics(w, clamps: int) -> dict[str, float]:
    read_s = w.total("csvio.read_records")
    return {
        "climate.generate_series_s": w.total("climate.generate_series"),
        "csvio.write_records_s": w.total("csvio.write_records"),
        "csvio.read_records_s": read_s,
        "csvio.records_per_s": float(w.work("csvio.read_records").sum()) / read_s,
        "dataset.build_samples_s": w.total("dataset.build_samples"),
        "dataset.windows": float(w.work("dataset.build_samples").sum()),
        "dataset.clamps": float(clamps),
        "experiment.build_phases_self_s": w.self_total("experiment.build_phases"),
    }


def run_layer_metrics(w, counts: dict, spec: dict, checkpoint_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``ghreplay run`` command."""
    updates = w.count("trainer.train_update")
    predict_s = w.total("model.predict_batch")
    backward_s = w.total("model.backward")
    by_module = w.self_by_module()
    metrics = {
        "linalg.matmul_calls_per_update":
            w.count_inside("trainer.train_update", "linalg.matmul") / updates,
        "linalg.activation_calls_per_update":
            w.count_inside("trainer.train_update", "linalg.activation") / updates,
        "linalg.matmul_self_s": w.self_total("linalg.matmul"),
        "linalg.activation_self_s": w.self_total("linalg.activation"),
        "model.predict_batch_s_per_call": w.per_call("model.predict_batch"),
        "model.predict_windows_per_s": float(w.work("model.predict_batch").sum()) / predict_s,
        "model.flops_per_eval": float(counts["flops_per_eval"]),
        "model.bytes_per_eval": float(counts["bytes_per_eval"]),
        "model.gflops_eval": float(w.work("model.predict_batch").sum())
            * counts["eval_flops_per_window"] / predict_s / 1e9,
        "model.backward_s_per_call": w.per_call("model.backward"),
        "model.adam_step_s_per_call": w.per_call("model.adam_step"),
        "model.flops_per_update": float(counts["flops_per_update"]),
        "model.bytes_per_update": float(counts["bytes_per_update"]),
        "model.gflops_train": float(w.work("model.backward").sum())
            * counts["train_flops_per_window"] / backward_s / 1e9,
        "memory.observe_batch_s_per_call": w.per_call("memory.observe_batch"),
        "memory.draw_replay_s_per_call": w.per_call("memory.draw_replay"),
        "memory.occupancy_stats_s_per_call": w.per_call("memory.occupancy_stats"),
        "memory.fill": float(w.work("memory.observe_batch")[-1]) / spec["memory"]["capacity"],
        "rng.draws_per_update": (w.count_inside("trainer.train_update", "rng.random")
                                 + w.count_inside("trainer.train_update", "rng.randbelow")) / updates,
        "trainer.train_update_self_s": w.self_total("trainer.train_update"),
        "trainer.stack_samples_s": w.total("trainer.stack_samples"),
        "trainer.evaluate_s_per_call": w.per_call("trainer.evaluate"),
        "trainer.eval_share": w.total("trainer.evaluate") / w.duration,
        "trainer.updates": float(updates),
        "trainer.evals": float(w.count("trainer.evaluate")),
        "checkpoint.save_s": w.total("checkpoint.save_checkpoint"),
        "checkpoint.bytes": float(checkpoint_bytes),
        "trace.run_s": w.duration,
        "trace.unattributed_s": by_module.get("cli", 0.0),
        "trace.spans": float(w.hi - w.lo),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = by_module.get(module, 0.0)
    return metrics


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description="ghreplay benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured runs (set-up excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(values: list[float]) -> str:
    shown = ", ".join(f"{v:.6g}" for v in values[:10])
    return f"median of {len(values)}: {shown}{', ...' if len(values) > 10 else ''}"


class Terminated(BaseException):
    """SIGTERM arrived; unwinds through the cleanup in ``main``."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    signal.signal(signal.SIGTERM, _terminate)   # so the cleanup below runs
    args = parse_args(argv)
    if not (SRC / "ghreplay" / "cli.py").is_file():
        print(f"error: no ghreplay sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import check

    workload = WORKLOADS[args.workload]
    seed = input_seed(args.seed)
    try:
        reference = check.load_reference(workload.name, seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no pinned reference for {workload.name} seed {seed}: {exc}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        mode = traced if args.trace else untraced
        tally, samples = mode(workload, seed, args.seconds, work, reference, deadline)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    env = environment()
    if args.trace:
        overhead = samples.get("trace.overhead_share")
        env["trace_overhead_share"] = statistics.median(overhead) if overhead else None
    print(f"workload {workload.name}: input seed {seed} (from --seed {args.seed}), "
          f"{'traced, in-process' if args.trace else 'untraced, one child process per command'}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"check: {tally.attempted} commands, {tally.failed} failed; "
          f"reruns byte-identical: {'yes' if tally.deterministic else 'NO'}")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")

    table = PER_LAYER if args.trace else END_TO_END
    extra = {"untraced_run_s": "s"} if args.trace else REPORTED
    metrics = {}
    for name, (unit, _) in table.items():
        if samples.get(name):
            value = statistics.median(samples[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} = {value:.6g} {unit} ({_fmt(samples[name])})")
        else:
            print(f"metric {name} = n/a")
    for name, unit in extra.items():
        if samples.get(name):
            print(f"info {name} = {statistics.median(samples[name]):.6g} {unit} "
                  f"({_fmt(samples[name])})")
    print(json.dumps({
        "correct": tally.failed == 0 and len(metrics) == len(table),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
