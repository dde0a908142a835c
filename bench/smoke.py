#!/usr/bin/env python3
"""Smoke check of the benchmark at a tiny size (about 10 s).

    python3 bench/smoke.py

1. BENCHMARK.json and ``metrics.py`` name the same metrics with the same
   units.
2. ``run.py --workload smoke`` in both modes reports a correct run and
   every metric BENCHMARK.json names for that mode, with its unit.
3. The output check accepts the smoke pipeline's outputs and a copy
   with 1e-12 relative drift, and rejects copies with a wrong value,
   label, update index, row count or header.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS


def perturbations(text: str) -> list[tuple[str, str, bool]]:
    """(what, perturbed copy of a curve.csv text, must the check reject it)."""
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    value = float(cells[3])

    def with_row1(new_cells):
        return "".join([lines[0], ",".join(new_cells) + "\n", *lines[2:]])

    return [
        ("float moved by 1e-12 relative", with_row1(cells[:3] + [repr(value * (1 + 1e-12))] + cells[4:]), False),
        ("float moved by 1e-6 relative", with_row1(cells[:3] + [repr(value * (1 + 1e-6))] + cells[4:]), True),
        ("phase label changed", with_row1(cells[:2] + ["GH-Z"] + cells[3:]), True),
        ("update index changed", with_row1([str(int(cells[0]) + 1)] + cells[1:]), True),
        ("row dropped", "".join(lines[:-1]), True),
        ("column renamed", text.replace("mse_total", "mse_all", 1), True),
    ]


def check_output_check(failures: list[str]) -> None:
    import check

    workload = WORKLOADS["smoke"]
    work = run.WORK_ROOT / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec_path = workload.write_spec(work)
        out = work / "out"
        runs = run.run_sequence(
            workload, out, spec_path, 0,
            lambda label, argv: run.run_child(argv, work / "commands.log", 170.0),
        )
        reference = check.load_reference("smoke", 0)
        by_label = {cmd.label: cmd for cmd in runs}
        found = check.check_against_reference(by_label["run"].outputs, reference["run"])
        if found:
            failures.append(f"unperturbed outputs rejected: {found}")
        curve = (out / "curve.csv").read_text(encoding="utf-8")
        if check.compare_csv(curve, reference["run"]["curve.csv"]):
            failures.append("unperturbed curve.csv rejected")
        copy = work / "perturbed"
        copy.mkdir()
        for what, text, must_reject in perturbations(curve):
            target = copy / "curve.csv"
            target.write_text(text, encoding="utf-8")
            found = check.check_against_reference([target], {"curve.csv": reference["run"]["curve.csv"]})
            print(f"perturbed curve.csv, {what}: {'rejected' if found else 'accepted'}")
            if bool(found) != must_reject:
                failures.append(f"perturbed copy {'accepted' if must_reject else 'rejected'}: {what}")
        missing = check.check_against_reference([], reference["run"])
        if set(missing) != set(reference["run"]):
            failures.append("missing output files not reported")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass


def check_benchmark_json(failures: list[str]) -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in doc[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from metrics.py: "
                            f"{sorted(set(listed) ^ set(table)) or 'units or directions'}")


def check_modes(failures: list[str]) -> None:
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "smoke",
             "--seed", "0", "--seconds", "2", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            failures.append(f"--trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {name: unit for name, (unit, _) in table.items()}
        print(f"--trace {trace}: correct={result['correct']}, "
              f"{len(emitted)}/{len(wanted)} metrics emitted")
        if not result["correct"] or result["failed"]:
            failures.append(f"--trace {trace}: run not correct")
        if emitted != wanted:
            failures.append(f"--trace {trace}: metrics differ: {sorted(set(emitted) ^ set(wanted))}")


def main() -> int:
    if not (run.SRC / "ghreplay" / "cli.py").is_file():
        print(f"error: no ghreplay sources under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    os.environ["PYTHONPATH"] = str(run.SRC)
    failures: list[str] = []
    check_benchmark_json(failures)
    check_modes(failures)
    check_output_check(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke check passed" if not failures else f"smoke check failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
