"""Benchmark workloads: what each one runs, and the work it does by shape.

A workload is a ``ghreplay`` command sequence over generated greenhouse
data. ``--seed`` picks one of ``VARIANTS`` input seeds (``seed % VARIANTS``),
because the output check compares against reference files pinned for each
variant (see ``pin.py``); the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    spec: dict = field(default_factory=dict)   # merged over the preset with --spec
    run_flags: tuple[str, ...] = ()
    baseline_phase: str | None = None          # adds `baseline` and `compare`

    def write_spec(self, work_dir: Path) -> Path | None:
        if not self.spec:
            return None
        path = work_dir / f"{self.name}.spec.json"
        path.write_text(json.dumps(self.spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    def commands(self, out: Path, spec_path: Path | None, seed: int) -> list[tuple[str, list[str]]]:
        """(label, argv) pairs; argv is what follows ``ghreplay`` on a command line."""
        common = ["--preset", self.preset]
        if spec_path is not None:
            common += ["--spec", str(spec_path)]
        common += ["--seed", str(seed), "--out", str(out)]
        cmds = [
            ("generate", ["generate", *common]),
            ("run", ["run", *common, *self.run_flags]),
        ]
        if self.baseline_phase is not None:
            phase = self.baseline_phase
            cmds.append(("baseline", ["baseline", *common, "--phase", phase]))
            cmds.append((
                "compare",
                ["compare", str(out / "curve.csv"), str(out / f"baseline_{phase}.csv"),
                 "--out", str(out / "compare.csv")],
            ))
        return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-pipeline",
            why="README quick start at the desk preset: every module works, small shapes, "
                "so per-call Python overhead dominates",
            preset="desk",
            run_flags=("--retention", "--dump-memory"),
            baseline_phase="GH-C",
        ),
        Workload(
            name="paper-eval",
            why="paper shapes (window 250, hidden 32, 10k test set) cut to one greenhouse and "
                "3 updates: evaluation on large batches dominates, memory stays in its fill phase",
            preset="paper",
            # 73 days is the shortest phase that leaves 3 updates after a 10k test set;
            # one greenhouse keeps a repeat near 6 s, so a run fits three of them
            spec={"days_per_phase": 73, "greenhouses": [{"name": "GH-A"}]},
            run_flags=("--dump-memory",),
        ),
        Workload(
            name="replay-stream",
            why="desk model with the paper's 10k memory and a long stream: memory fills, "
                "then sweeps for 83 updates; training- and memory-heavy, few evals",
            preset="desk",
            spec={
                "days_per_phase": 50,
                "memory": {"capacity": 10000},
                "scenario": {"eval_every": 60},
            },
            run_flags=("--dump-memory",),
        ),
        # Not part of BENCHMARK.json: a tiny pipeline for smoke.py.
        Workload(
            name="smoke",
            why="tiny desk pipeline that runs every command in a second or two",
            preset="desk",
            spec={
                "days_per_phase": 3,
                "memory": {"capacity": 300},
                "scenario": {"eval_every": 2, "test_size": 100},
            },
            run_flags=("--retention", "--dump-memory"),
            baseline_phase="GH-C",
        ),
    )
}


def input_seed(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# work per update and per evaluation, computed from the array shapes

def computed_counts(spec: dict) -> dict[str, float]:
    """GEMM FLOPs and compulsory bytes of one update and one evaluation.

    FLOPs count 2*m*k*n per matrix product of the LSTM forward pass, its
    backpropagation through time and the dense head; elementwise work is
    left out. Bytes count float64 traffic that cannot be avoided: windows
    and targets read, the seven (T, B, H) activation caches written by the
    training forward pass and read back by BPTT, and Adam reading p, g, m, v
    and writing p, m, v. An update is counted at its steady-state batch of
    ``batch_size + replay_size`` rows.
    """
    data, model, scen = spec["data"], spec["model"], spec["scenario"]
    t, d, k = data["window_len"], 5, 2
    h, n = model["hidden_dim"], model["dense_dim"]
    fwd = t * (8 * d * h + 8 * h * h) + 2 * h * n + 2 * n * k
    bwd = t * (8 * h * d + 16 * h * h) + 4 * k * n + 4 * n * h
    n_params = 4 * (h * d + h * h + h) + n * h + n + k * n + k
    rows = scen["batch_size"] + scen["replay_size"]
    windows = scen["test_size"]
    return {
        "flops_per_update": rows * (fwd + bwd),
        "flops_per_eval": windows * fwd,
        "bytes_per_update": 8 * (2 * rows * t * d + 14 * t * rows * h + rows * k + 7 * n_params),
        "bytes_per_eval": 8 * (windows * t * d + windows * k + n_params),
        "train_flops_per_window": fwd + bwd,
        "eval_flops_per_window": fwd,
    }
