"""The columnar data path against the record-by-record code it replaced.

The scalar generator, the ``csv.writer`` output and the per-cell
``int()``/``float()`` parse below are the reference: the columnar
generator, writer and reader must reproduce them bit for bit, and the
block of truncated normals must equal one scalar draw per value,
including the stream state left behind.
"""

import csv
import io
import math

import numpy as np
import pytest

from ghreplay.climate import (
    PRESETS,
    RECORDS_PER_DAY,
    SAMPLE_INTERVAL_S,
    generate_series,
    photosynthesis_rate,
    transpiration_rate,
    vapor_pressure_deficit,
)
from ghreplay.csvio import COLUMNS, read_records, write_records
from ghreplay.rng import SeededRng


def scalar_series(p, days, rng, start_timestamp=0):
    """One tuple per record in COLUMNS order, drawing three scalar truncated
    normals per record (temperature, transpiration, photosynthesis)."""

    def humidity(delta_t):
        return min(100.0, max(20.0, 85.0 - 2.5 * delta_t))

    sunrise = 12.0 - p.day_length_h / 2.0
    records = []
    for k in range(days * RECORDS_PER_DAY):
        ts = start_timestamp + k * SAMPLE_INTERVAL_S
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
        t_noise = rng.truncated_normal()
        transp_noise = rng.truncated_normal()
        photo_noise = rng.truncated_normal()
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
            # a partner of either sign and size: some are rejected at small limits
            assert block.standard_normal() == scalar.standard_normal()
            assert block.get_state()["gauss"] is not None
        expected = [scalar.truncated_normal(limit) for _ in range(n)]
        del count_peeks[:]
        values = block.truncated_normals(n, limit)
        assert values.dtype == np.float64 and values.tolist() == expected
        assert block.get_state() == scalar.get_state()
        if n > 100 and limit < 1.0:
            # the first block, sized for a 3-sigma limit, falls short
            assert len(count_peeks) > 1


def test_truncated_normals_leave_partner_for_scalar_calls():
    block, scalar = SeededRng(12), SeededRng(12)
    for n in (3, 1, 4, 1, 5, 9, 2, 6):
        assert block.truncated_normals(n).tolist() == [scalar.truncated_normal() for _ in range(n)]
        assert block.get_state() == scalar.get_state()
        assert block.standard_normal() == scalar.standard_normal()


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("start_timestamp", [0, 2 * 86400 + 1234])
def test_generate_series_equals_scalar_generator(name, start_timestamp):
    block, scalar = SeededRng(31).split(f"generator/{name}"), SeededRng(31).split(f"generator/{name}")
    series = generate_series(PRESETS[name], 3, block, start_timestamp=start_timestamp)
    assert series.timestamp.dtype == np.int64
    assert as_records(series) == scalar_series(PRESETS[name], 3, scalar, start_timestamp)
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
