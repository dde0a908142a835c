"""Command-line entry point.

Subcommands: ``generate`` (synthetic datasets), ``run`` (transfer
scenario), ``baseline`` (fresh model on one phase), ``compare``
(transferred vs fresh first-eval table). Every command is deterministic
under a fixed spec, which states every setting of an experiment; the
flags choose the spec, the preset it is merged over, the seed, the
output directory and the optional outputs. Exit codes: 0 success,
1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiment, trainer
from .checkpoint import save_checkpoint
from .schema import SpecError


def _resolve(args: argparse.Namespace) -> tuple[dict, Path]:
    """The spec of ``generate``, ``run`` or ``baseline``, with the ``--seed``
    and ``--out`` flags given, and its output directory."""
    overrides = {key: value for key, value in (("seed", args.seed), ("out_dir", args.out))
                 if value is not None}
    spec = experiment.resolve_spec(args.spec, args.preset, overrides)
    return spec, Path(spec["out_dir"])


def cmd_generate(args: argparse.Namespace) -> int:
    spec, out_dir = _resolve(args)
    written = experiment.generate_datasets(spec, out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _set_up(args: argparse.Namespace):
    """The output directory, the scenario of the spec's phases, and the model and memory configs."""
    spec, out_dir = _resolve(args)
    phases, _ = experiment.build_phases(spec, out_dir)
    return (out_dir, experiment.build_scenario(spec, phases),
            experiment.build_model_config(spec), experiment.build_memory_config(spec))


def _write_curve(curve_path: Path, curve: trainer.LearningCurve) -> None:
    """Write the curve and its phase boundaries next to it."""
    curve_path.parent.mkdir(parents=True, exist_ok=True)
    boundaries_path = experiment.boundaries_path_for(curve_path)
    trainer.write_curve_csv(curve_path, curve)
    trainer.write_boundaries_csv(boundaries_path, curve)
    print(f"wrote {curve_path}")
    print(f"wrote {boundaries_path}")


def cmd_run(args: argparse.Namespace) -> int:
    out_dir, scenario, model_cfg, memory_cfg = _set_up(args)
    result = trainer.run_scenario(scenario, model_cfg, memory_cfg, retention=args.retention)

    _write_curve(out_dir / experiment.CURVE_CSV, result.curve)
    save_checkpoint(out_dir / experiment.CHECKPOINT_NPZ, model_cfg, result.state)
    print(f"wrote {out_dir / experiment.CHECKPOINT_NPZ}")
    for wanted, name, write in (
            (args.retention, experiment.RETENTION_CSV, trainer.write_retention_csv),
            (args.dump_memory, experiment.MEMORY_CSV, trainer.write_memory_csv)):
        if wanted:
            write(out_dir / name, result.curve)
            print(f"wrote {out_dir / name}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    out_dir, scenario, model_cfg, memory_cfg = _set_up(args)
    result = trainer.run_baseline(scenario, model_cfg, memory_cfg, args.phase)
    _write_curve(out_dir / f"{experiment.BASELINE_PREFIX}{args.phase}.csv", result.curve)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    run_curve = Path(args.run_curve)
    read = {path.resolve() for curve in (run_curve, *map(Path, args.baselines))
            for path in (curve, experiment.boundaries_path_for(curve))}
    if args.out is not None and Path(args.out).resolve() in read:
        raise SpecError(f"--out {args.out}: compare reads this file; choose another path")
    run_points = trainer.read_curve_csv(run_curve)
    run_starts = trainer.read_boundaries_csv(experiment.boundaries_path_for(run_curve))
    baselines = []
    for base_path in map(Path, args.baselines):
        points = trainer.read_curve_csv(base_path)
        starts = trainer.read_boundaries_csv(experiment.boundaries_path_for(base_path))
        if len(starts) != 1:
            raise ValueError(f"{base_path}: baseline must cover exactly one phase")
        baselines.append((starts[0][0], points))
    rows = trainer.compare_transfer(run_points, run_starts, baselines)
    header = f"{'phase':<10} {'boundary':>8} {'transferred':>12} {'fresh':>12} {'ratio':>8}  result"
    print(header)
    for r in rows:
        print(
            f"{r.phase:<10} {r.boundary_update:>8} {r.transferred_mse:>12.6g} "
            f"{r.fresh_mse:>12.6g} {r.ratio:>8.3g}  {r.transfer_benefit}"
        )
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        trainer.write_compare_csv(out_path, rows)
        print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghreplay",
        description="Online LSTM training with episodic replay across greenhouse datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", type=Path, default=None, help="experiment spec JSON file")
    common.add_argument(
        "--preset",
        choices=sorted(experiment.PRESET_SPECS),
        default="desk",
        help="base defaults to merge the spec into (default: %(default)s)",
    )
    common.add_argument("--seed", type=int, default=None, help="override the spec seed")
    common.add_argument("--out", type=str, default=None, help="override the spec output directory")

    p_gen = sub.add_parser("generate", parents=[common], help="write synthetic greenhouse CSVs")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", parents=[common], help="run the transfer scenario")
    p_run.add_argument(
        "--retention",
        action="store_true",
        help="also evaluate earlier phases' test sets at each evaluation",
    )
    p_run.add_argument(
        "--dump-memory",
        action="store_true",
        help="also write memory.csv: the memory occupancy by origin label after every update",
    )
    p_run.set_defaults(func=cmd_run)

    p_base = sub.add_parser(
        "baseline", parents=[common], help="train a fresh model on a single phase"
    )
    p_base.add_argument("--phase", required=True, help="phase (greenhouse) label to train on")
    p_base.set_defaults(func=cmd_baseline)

    p_cmp = sub.add_parser("compare", help="compare a run curve against fresh baselines")
    p_cmp.add_argument("run_curve", type=Path, help="curve CSV produced by `run`")
    p_cmp.add_argument("baselines", nargs="+", type=Path, help="baseline curve CSVs")
    p_cmp.add_argument("--out", type=str, default=None, help="also write the table as CSV")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:  # os.replace names the target second
        print(f"error: {exc.filename2 or exc.filename} is a directory, not a file", file=sys.stderr)
        return 2
    except (FileExistsError, NotADirectoryError) as exc:  # the path is, or lies under, a file
        print(f"error: {exc.filename}: a file stands where a directory is needed", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
