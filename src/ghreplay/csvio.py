"""CSV persistence for climate series.

Schema (comma-separated, header required, UTF-8):

    timestamp,t_air,rh,radiation,co2,t_leaf,transpiration,photosynthesis

Timestamps are integer seconds; floats are printed with 9 significant
digits, so one write/read cycle quantizes values to that precision and is
a fixed point afterwards.

The reader is the boundary for outside data, and every error names the
file and line. Every value must be finite (``nan``, ``inf`` and ``-inf``
are rejected here, so no non-finite input reaches the normalizer or the
model), and rh, radiation and co2 must lie in their physical ranges.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .atomic import atomic_open
from .climate import SAMPLE_INTERVAL_S, ClimateRecord

COLUMNS = (
    "timestamp",
    "t_air",
    "rh",
    "radiation",
    "co2",
    "t_leaf",
    "transpiration",
    "photosynthesis",
)


def write_records(path: str | Path, records: list[ClimateRecord]) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for r in records:
            writer.writerow(
                [str(r.timestamp)]
                + [
                    format(v, ".9g")
                    for v in (
                        r.t_air,
                        r.rh,
                        r.radiation,
                        r.co2,
                        r.t_leaf,
                        r.transpiration,
                        r.photosynthesis,
                    )
                ]
            )


def read_records(path: str | Path) -> list[ClimateRecord]:
    """Read and validate a climate CSV; errors carry the 1-based line number."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {','.join(COLUMNS)}") from None
        if tuple(header) != COLUMNS:
            missing = [c for c in COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path}:1: missing column(s) {', '.join(missing)}")
            raise ValueError(f"{path}:1: columns must be exactly {','.join(COLUMNS)}")

        records: list[ClimateRecord] = []
        prev_ts: int | None = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(COLUMNS):
                raise ValueError(f"{path}:{line_no}: expected {len(COLUMNS)} cells, got {len(row)}")
            try:
                ts = int(row[0])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric timestamp {row[0]!r}") from None
            values = []
            for col, cell in zip(COLUMNS[1:], row[1:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: non-numeric value {cell!r} in column {col}"
                    ) from None
            # one test per row: a nan or inf cell makes the sum non-finite
            # (a sum that merely overflows finds no bad cell below)
            if not math.isfinite(sum(values)):
                for col, cell, value in zip(COLUMNS[1:], row[1:], values):
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}:{line_no}: non-finite value {cell!r} in column {col}"
                        )
            t_air, rh, radiation, co2, t_leaf, transp, photo = values
            if prev_ts is not None and ts != prev_ts + SAMPLE_INTERVAL_S:
                raise ValueError(
                    f"{path}:{line_no}: timestamp {ts} does not increase by "
                    f"{SAMPLE_INTERVAL_S} s over previous {prev_ts}"
                )
            if radiation < 0:
                raise ValueError(f"{path}:{line_no}: radiation must be >= 0, got {radiation}")
            if not 0.0 <= rh <= 100.0:
                raise ValueError(f"{path}:{line_no}: rh must be in [0, 100], got {rh}")
            if co2 <= 0:
                raise ValueError(f"{path}:{line_no}: co2 must be > 0, got {co2}")
            prev_ts = ts
            records.append(
                ClimateRecord(ts, t_air, rh, radiation, co2, t_leaf, transp, photo)
            )
    return records
