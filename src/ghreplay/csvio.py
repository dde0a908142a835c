"""CSV persistence for climate series.

Schema (comma-separated, header required, UTF-8 with or without a
byte-order mark):

    timestamp,t_air,rh,radiation,co2,t_leaf,transpiration,photosynthesis

The writer's bytes are fixed: the header, then one line per record with
the timestamp as a decimal integer and every other cell as ``%.9g`` (9
significant digits), each line ended by CRLF. These are the bytes
``csv.writer`` gives for the same cells. The file is formatted as one
string from the series' columns and written in one go. One write/read
cycle quantizes values to 9 digits and is a fixed point afterwards.

The reader is the boundary for outside data, and every error names the
file and line. Every value must be finite (``nan``, ``inf`` and ``-inf``
are rejected here, so no non-finite input reaches the normalizer or the
model), timestamps must step by 300 s, and rh, radiation and co2 must lie
in their physical ranges. The body is parsed in one vectorized pass
(``np.loadtxt``, whose float parse rounds as ``float()`` does) and
checked by ``_first_failure``, the one statement of the four checks. If
that fails, ``read_table`` parses it again with ``int()`` and
``float()``, naming a bad cell and reading cells only Python reads
(``1_000``, a quoted number); the same checks then name the first bad line.

``read_table`` is the one reader of headed CSV tables, the climate files
and the curves that ``compare`` reads back alike: it checks the header,
skips blank lines, and rejects a row with the wrong number of cells or
a cell that its column's converter rejects, naming the file and line.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .climate import SAMPLE_INTERVAL_S, ClimateSeries

COLUMNS = tuple(f.name for f in fields(ClimateSeries))

_LINE = "%d" + ",%.9g" * (len(COLUMNS) - 1) + "\r\n"
_TABLE = np.dtype([(COLUMNS[0], np.int64)] + [(name, np.float64) for name in COLUMNS[1:]])


def write_records(path: str | Path, series: ClimateSeries) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        rows = zip(*(getattr(series, name).tolist() for name in COLUMNS))
        fh.write(",".join(COLUMNS) + "\r\n" + "".join(map(_LINE.__mod__, rows)))


def read_records(path: str | Path) -> ClimateSeries:
    """Read and validate a climate CSV; errors carry the 1-based line number."""
    path = Path(path)
    with _open_text(path) as fh:
        _check_header(path, fh, COLUMNS)
        try:
            with warnings.catch_warnings():
                # an empty body warns, and numpy < 1.26 reads "300.0" as an int with a warning
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=_TABLE, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            table = None
    if (table is None or not all(np.isfinite(table[name]).all() for name in COLUMNS[1:])
            or _first_failure(table) is not None):
        table = _read_lines(path)
    return ClimateSeries(*(table[name] for name in COLUMNS))


@contextmanager
def _open_text(path: Path):
    """``path`` opened for reading as UTF-8, skipping a leading byte-order
    mark (Excel's "CSV UTF-8" writes one); a byte that is not UTF-8 fails
    with the file and the line of the first such byte, found only then."""
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                line = exc.object.count(b"\n", 0, exc.start) + 1
                raise ValueError(f"{path}:{line}: not valid UTF-8") from None
            raise


def _check_header(path: Path, fh, columns: tuple[str, ...]):
    """A CSV reader over ``fh``, positioned after its checked header."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected header {','.join(columns)}") from None
    if tuple(header) != columns:
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}:1: missing column(s) {', '.join(missing)}")
        raise ValueError(f"{path}:1: columns must be exactly {','.join(columns)}")
    return reader


def read_table(
    path: str | Path, columns: tuple[str, ...], converters: tuple[Callable[[str], object], ...]
) -> Iterator[tuple[int, tuple]]:
    """``(line number, cells)`` for each non-blank row under a header of
    ``columns``, each cell converted by its column's converter; a row
    with the wrong number of cells, or a cell whose converter raises
    ``ValueError``, fails with the file and line."""
    path = Path(path)
    with _open_text(path) as fh:
        reader = _check_header(path, fh, columns)
        for cells in reader:
            if not cells:
                continue
            where = f"{path}:{reader.line_num}"
            if len(cells) != len(columns):
                raise ValueError(f"{where}: expected {len(columns)} cells, got {len(cells)}")
            row = []
            for column, convert, cell in zip(columns, converters, cells):
                try:
                    row.append(convert(cell))
                except ValueError:
                    raise ValueError(f"{where}: column {column}: invalid value {cell!r}") from None
            yield reader.line_num, tuple(row)


def finite_float(cell: str) -> float:
    """``float(cell)``, rejecting ``nan``, ``inf`` and ``-inf``."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def _int64(cell: str) -> int:
    """``int(cell)``, rejecting a value outside int64."""
    value = int(cell)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(cell)
    return value


def _read_lines(path: Path) -> np.ndarray:
    """The file parsed line by line: raises for the first bad line, else
    returns the table. The rows before a bad cell are checked first."""
    parsed, parse_error = [], None
    converters = (_int64,) + (finite_float,) * (len(COLUMNS) - 1)
    try:
        for line_row in read_table(path, COLUMNS, converters):
            parsed.append(line_row)
    except ValueError as exc:
        parse_error = exc
    table = np.array([row for _, row in parsed], dtype=_TABLE)
    if (failure := _first_failure(table)) is not None:
        raise ValueError(f"{path}:{parsed[failure[0]][0]}: {failure[1]}")
    if parse_error is not None:
        raise parse_error
    return table


def _first_failure(table: np.ndarray) -> tuple[int, str] | None:
    """(first row breaking a check, its message), or None; checks run in order."""
    ts, radiation, rh, co2 = (table[name] for name in ("timestamp", "radiation", "rh", "co2"))
    steps = np.ones(len(ts), dtype=bool)
    # an increase first: the int64 difference wraps around
    steps[1:] = (ts[1:] > ts[:-1]) & (np.diff(ts) == SAMPLE_INTERVAL_S)
    checks = (
        (steps, lambda i: f"timestamp {ts[i]} does not increase by "
                          f"{SAMPLE_INTERVAL_S} s over previous {ts[i - 1]}"),
        (radiation >= 0, lambda i: f"radiation must be >= 0, got {radiation[i]}"),
        ((rh >= 0.0) & (rh <= 100.0), lambda i: f"rh must be in [0, 100], got {rh[i]}"),
        (co2 > 0, lambda i: f"co2 must be > 0, got {co2[i]}"),
    )
    passed = np.logical_and.reduce([ok for ok, _ in checks])
    if passed.all():
        return None
    row = int(passed.argmin())
    return next((row, message(row)) for ok, message in checks if not ok[row])
