#!/usr/bin/env python3
"""Pin the reference outputs that the benchmark's output check compares with.

    python3 bench/pin.py

For every workload and every input seed 0 .. VARIANTS-1, runs the
workload's commands in child processes, exactly as ``run.py`` does, and
stores the text of each CSV a command writes (climate inputs excluded) in
``bench/reference/<workload>.json``, keyed by seed and command. Pin only
from a commit whose outputs are the accepted ones: re-pinning changes
what the benchmark calls correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
from workloads import VARIANTS, WORKLOADS

PIN_TIMEOUT_S = 600.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((run.SRC / "ghreplay").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pin(workload, work) -> dict:
    import check

    spec_path = workload.write_spec(work)
    variants = {}
    for seed in range(VARIANTS):
        out = work / f"seed{seed}"
        runs = run.run_sequence(
            workload, out, spec_path, seed,
            lambda label, argv: run.run_child(argv, work / "commands.log", PIN_TIMEOUT_S),
        )
        variants[str(seed)] = {}
        for cmd in runs:
            if cmd.exit_code != 0:
                raise SystemExit(f"{workload.name} seed {seed}: `{cmd.label}` exited {cmd.exit_code}")
            variants[str(seed)][cmd.label] = {
                p.name: p.read_text(encoding="utf-8") for p in check.checked_outputs(cmd.outputs)
            }
        shutil.rmtree(out)
        print(f"pinned {workload.name} seed {seed}", flush=True)
    return variants


def main() -> int:
    if not (run.SRC / "ghreplay" / "cli.py").is_file():
        print(f"error: no ghreplay sources under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    os.environ["PYTHONPATH"] = str(run.SRC)
    import check

    for name in sorted(WORKLOADS):
        work = run.WORK_ROOT / f"pin-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            doc = {
                "workload": name,
                "source_sha256": source_digest(),
                "variants": pin(WORKLOADS[name], work),
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = check.reference_path(name)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
