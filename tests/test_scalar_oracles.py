"""The columnar data path against the record-by-record code it replaced.

The scalar generator, the ``csv.writer`` output, the per-cell
``int()``/``float()`` parse and the line-by-line climate checks below are
the reference: the columnar generator, writer and reader must reproduce
them bit for bit, error messages included, and the block of truncated
normals must equal the scalar Box-Muller loop, including the stream state
left behind.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghreplay.climate import (
    PRESETS,
    RECORDS_PER_DAY,
    SAMPLE_INTERVAL_S,
    generate_series,
    photosynthesis_rate,
    transpiration_rate,
    vapor_pressure_deficit,
)
from ghreplay.csvio import COLUMNS, _int64, finite_float, read_records, read_table, write_records
from ghreplay.rng import SeededRng


class ScalarNormals:
    """Box-Muller on ``rng``, one value per call: the cosine of a pair of
    uniforms, then its sine."""

    def __init__(self, rng):
        self.rng = rng
        self.sine = None

    def standard_normal(self):
        if self.sine is not None:
            z, self.sine = self.sine, None
            return z
        # u1 in (0, 1] so the log never sees zero
        u1 = ((self.rng.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.rng.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.sine = r * math.sin(theta)
        return r * math.cos(theta)

    def truncated_normal(self, limit=3.0):
        """A standard normal rejected until |z| <= limit."""
        while True:
            z = self.standard_normal()
            if abs(z) <= limit:
                return z


def scalar_series(p, days, rng):
    """One tuple per record in COLUMNS order, drawing three scalar truncated
    normals per record (temperature, transpiration, photosynthesis) from
    one Box-Muller loop."""
    normals = ScalarNormals(rng)

    def humidity(delta_t):
        return min(100.0, max(20.0, 85.0 - 2.5 * delta_t))

    sunrise = 12.0 - p.day_length_h / 2.0
    records = []
    for k in range(days * RECORDS_PER_DAY):
        ts = k * SAMPLE_INTERVAL_S
        hour = (ts % 86400) / 3600.0
        phase = (hour - sunrise) / p.day_length_h
        radiation = p.i_max * math.sin(math.pi * phase) if 0.0 < phase < 1.0 else 0.0
        radiation = max(0.0, radiation)
        rel = radiation / p.i_max
        t_clean = p.t_base + p.t_amp * rel
        rh_clean = humidity(t_clean - p.t_base)
        co2 = p.co2_night + (p.co2_day - p.co2_night) * rel
        transp = transpiration_rate(radiation, vapor_pressure_deficit(t_clean, rh_clean), p)
        photo = photosynthesis_rate(radiation, co2, p)
        t_noise = normals.truncated_normal()
        transp_noise = normals.truncated_normal()
        photo_noise = normals.truncated_normal()
        t_air = t_clean + p.noise_sd * p.t_amp * t_noise
        records.append((
            ts,
            t_air,
            humidity(t_air - p.t_base),
            radiation,
            co2,
            t_air + 0.1 * rel,
            transp * (1.0 + p.noise_sd * transp_noise),
            photo * (1.0 + p.noise_sd * photo_noise),
        ))
    return records


def csv_writer_bytes(records):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(COLUMNS)
    for ts, *values in records:
        writer.writerow([str(ts)] + [format(v, ".9g") for v in values])
    return buffer.getvalue().encode("utf-8")


def float_parse(path):
    """Every body cell of a CSV through int() or float()."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(int(row[0]), *map(float, row[1:])) for row in rows if row]


def as_records(series):
    return list(zip(*(getattr(series, name).tolist() for name in COLUMNS)))


@pytest.fixture
def count_peeks(monkeypatch):
    calls = []
    peek = SeededRng.peek_u64

    def counted(self, n):
        calls.append(n)
        return peek(self, n)

    monkeypatch.setattr(SeededRng, "peek_u64", counted)
    return calls


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached-partner"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 3001])
@pytest.mark.parametrize("limit", [3.0, 0.5, 0.05])
def test_truncated_normals_equal_scalar_calls(count_peeks, cached, n, limit):
    for seed in range(4):
        block, scalar = SeededRng(seed), SeededRng(seed)
        if cached:
            # an earlier draw ends on a cosine: the sine its scalar loop holds is dropped
            earlier = ScalarNormals(scalar)
            assert block.truncated_normals(1, math.inf).tolist() == [earlier.standard_normal()]
        normals = ScalarNormals(scalar)  # a sine it holds at the end is dropped
        expected = [normals.truncated_normal(limit) for _ in range(n)]
        del count_peeks[:]
        values = block.truncated_normals(n, limit)
        assert values.dtype == np.float64 and values.tolist() == expected
        assert block.get_state() == scalar.get_state()
        assert block.next_u64() == scalar.next_u64()
        if n > 100 and limit < 1.0:
            # the first block, sized for a 3-sigma limit, falls short
            assert len(count_peeks) > 1


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_generate_series_equals_scalar_generator(name):
    block, scalar = SeededRng(31).split(f"generator/{name}"), SeededRng(31).split(f"generator/{name}")
    series = generate_series(PRESETS[name], 3, block)
    assert series.timestamp.dtype == np.int64
    assert as_records(series) == scalar_series(PRESETS[name], 3, scalar)
    assert block.get_state() == scalar.get_state()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_write_records_equals_csv_writer(tmp_path, name):
    series = generate_series(PRESETS[name], 2, SeededRng(32))
    series.t_air[:6] = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1.7e308]
    path = tmp_path / "gh.csv"
    write_records(path, series)
    assert path.read_bytes() == csv_writer_bytes(as_records(series))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_read_records_equals_float_parse(tmp_path, name):
    path = tmp_path / "gh.csv"
    for seed in (33, 34):
        write_records(path, generate_series(PRESETS[name], 5, SeededRng(seed)))
        series = read_records(path)
        assert series.timestamp.dtype == np.int64
        assert as_records(series) == float_parse(path)


def test_read_records_reads_cells_only_python_parses(tmp_path):
    # cells that the vectorized parse refuses take the per-line path
    path = tmp_path / "odd.csv"
    path.write_text(
        ",".join(COLUMNS) + "\r\n"
        "0,1_000.5,80,0,650,20,0.01,0\r\n"
        '300,"21.25",80,0,650,20,0.01,0\r\n'
        "\r\n"
        "600, 20 ,80,0,650,20,0.01,0\r\n",
        encoding="utf-8",
    )
    assert as_records(read_records(path)) == float_parse(path)


def line_by_line_read(path):
    """The climate reader as a loop over lines: the first bad line raises."""
    rows = []
    prev_ts = None
    converters = (_int64,) + (finite_float,) * (len(COLUMNS) - 1)
    for line_no, row in read_table(path, COLUMNS, converters):
        ts, t_air, rh, radiation, co2, t_leaf, transp, photo = row
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
        rows.append(row)
    table = np.array(rows, dtype=[(COLUMNS[0], np.int64)] + [(c, np.float64) for c in COLUMNS[1:]])
    return [table[name] for name in COLUMNS]


# an in-range value for each float column: t_air, rh, radiation, co2, t_leaf, then the targets
IN_RANGE = [(-10.0, 50.0), (0.0, 100.0), (0.0, 1200.0), (1e-3, 2000.0), (-10.0, 50.0),
            (0.0, 5.0), (0.0, 50.0)]
WRAP = (str((1 << 63) - 1), str(-(1 << 63) + 299))  # an int64 difference of 300


def defect(draw, rows, start):
    """One defect put into ``rows`` (lists of cells, the first timestamp
    ``start``) at a drawn row."""
    kind = draw(st.sampled_from(["timestamp", "radiation", "rh", "co2", "non-finite",
                                 "non-numeric", "cell-count", "python-only", "wrap"]))
    i = draw(st.integers(0, len(rows) - 1))
    cells = rows[i]
    j = draw(st.integers(0, len(cells) - 1))  # an earlier cell-count defect may have dropped a cell
    if kind == "timestamp":
        cells[0] = str(start + SAMPLE_INTERVAL_S * i + draw(st.sampled_from([1, -300, 300, 600])))
    elif kind == "radiation":
        cells[3] = draw(st.sampled_from(["-5", "-0.5", "-1e-300"]))
    elif kind == "rh":
        cells[2] = draw(st.sampled_from(["100.5", "-0.5", "1e300", "100.00000000000001"]))
    elif kind == "co2":
        cells[4] = draw(st.sampled_from(["0", "-0.0", "-3"]))
    elif kind == "non-finite":
        cells[j] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif kind == "non-numeric":
        cells[j] = draw(st.sampled_from(["oops", "", "1e"]))
    elif kind == "cell-count":
        rows[i] = cells[:-1] if draw(st.booleans()) else cells + ["0"]
    elif kind == "python-only":  # a quoted cell, or 10.0 written with an underscore
        cells[j] = f'"{cells[j]}"' if j == 0 or draw(st.booleans()) else "1_0"
    elif i + 1 < len(rows):  # an int64-wrapping pair of timestamps
        rows[i][0], rows[i + 1][0] = WRAP
    else:
        cells[0] = WRAP[0]


@st.composite
def climate_files(draw):
    """A header, 1-8 rows with 0-2 defects, and blank lines, as text."""
    start = draw(st.sampled_from([0, 86400, -(1 << 62), (1 << 63) - 1 - 300 * 7]))
    rows = [[str(start + SAMPLE_INTERVAL_S * k)]
            + [repr(draw(st.floats(low, high))) for low, high in IN_RANGE]
            for k in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 2))):
        defect(draw, rows, start)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(COLUMNS)]
    for cells in rows:
        lines += [""] * draw(st.integers(0, 1)) + [",".join(cells)]
    return newline.join(lines + [""] * draw(st.integers(0, 2))) + newline


def read_outcome(read, path):
    """The columns ``read`` returns, as dtypes and bytes, or its error message."""
    try:
        columns = read(path)
    except ValueError as exc:
        return str(exc)
    return [(np.asarray(column).dtype, np.asarray(column).tobytes()) for column in columns]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=climate_files())
def test_read_records_equals_line_by_line_read(tmp_path, text):
    path = tmp_path / "gh.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = read_outcome(line_by_line_read, path)
    got = read_outcome(lambda p: [getattr(read_records(p), name) for name in COLUMNS], path)
    assert got == expected
