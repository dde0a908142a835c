import numpy as np
import pytest

from conftest import series_rows
from ghreplay.climate import PRESETS, generate_series
from ghreplay.csvio import COLUMNS, read_records, write_records
from ghreplay.rng import SeededRng


def test_write_read_roundtrip_at_nine_digits(tmp_path):
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(1))
    path = tmp_path / "gh.csv"
    write_records(path, series)
    back = read_records(path)
    assert len(back) == len(series)
    assert back.timestamp.dtype == np.int64
    assert np.array_equal(back.timestamp, series.timestamp)
    for name in COLUMNS[1:]:
        a, b = getattr(series, name), getattr(back, name)
        assert b.dtype == np.float64
        assert b.tolist() == pytest.approx(a.tolist(), rel=5e-9, abs=1e-12)


def test_second_write_is_a_byte_fixed_point(tmp_path):
    series = generate_series(PRESETS["GH-B"], days=1, rng=SeededRng(2))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_records(first, series)
    write_records(second, read_records(first))
    assert first.read_bytes() == second.read_bytes()


def test_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(COLUMNS) + "\n", encoding="utf-8")
    series = read_records(path)
    assert len(series) == 0
    assert all(getattr(series, name).shape == (0,) for name in COLUMNS)


def test_missing_column_is_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,t_air,rh\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing column"):
        read_records(path)


def test_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(COLUMNS) + "\n"
        "0,20,80,0,650,20,0.01,0\n"
        "300,oops,80,0,650,20,0.01,0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"bad\.csv:3: column t_air: invalid value 'oops'$"):
        read_records(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", COLUMNS[1:])
def test_non_finite_cell_names_line_and_column(tmp_path, column, value):
    cells = dict(zip(COLUMNS, "300,20,80,0,650,20,0.01,0".split(",")))
    cells[column] = value
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(COLUMNS) + "\n"
        "0,20,80,0,650,20,0.01,0\n"
        + ",".join(cells.values()) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(
        ValueError, match=rf"bad\.csv:3: column {column}: invalid value '{value}'$"
    ):
        read_records(path)


@pytest.mark.parametrize("timestamp", [str(1 << 63), str(-(1 << 63) - 1)])
def test_timestamp_outside_int64_names_line_and_column(tmp_path, timestamp):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(COLUMNS) + "\n" + timestamp + ",20,80,0,650,20,0.01,0\n",
                    encoding="utf-8")
    with pytest.raises(
        ValueError, match=rf"bad\.csv:2: column timestamp: invalid value '{timestamp}'$"
    ):
        read_records(path)


def test_finite_values_whose_row_sum_overflows_are_accepted(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(
        ",".join(COLUMNS) + "\n"
        "0,1.7e308,80,0,650,1.7e308,0.01,0\n",
        encoding="utf-8",
    )
    series = read_records(path)
    assert series.t_air.tolist() == series.t_leaf.tolist() == [1.7e308]


def test_shuffled_timestamps_name_first_offending_line(tmp_path):
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(3))
    path = tmp_path / "shuffled.csv"
    write_records(path, series_rows(series, [0, 1, 2, 3, 5, 4, 6, 7, 8, 9]))
    # rows start at line 2; the swap makes line 6 the first bad one
    with pytest.raises(ValueError, match=r"shuffled\.csv:6: timestamp"):
        read_records(path)


def test_range_violations_are_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(COLUMNS) + "\n"
        "0,20,80,-5,650,20,0.01,0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"bad\.csv:2: radiation"):
        read_records(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("600,20,100.5,0,650,20,0.01,0", r"rh must be in \[0, 100\], got 100.5"),
        ("600,20,-0.5,0,650,20,0.01,0", r"rh must be in \[0, 100\], got -0.5"),
        ("600,20,80,-5,650,20,0.01,0", r"radiation must be >= 0, got -5.0"),
        ("600,20,80,0,0,20,0.01,0", r"co2 must be > 0, got 0.0"),
        ("900,20,80,0,650,20,0.01,0", r"timestamp 900 does not increase by 300 s over previous 300"),
    ],
    ids=["rh-high", "rh-low", "radiation", "co2", "timestamp-gap"],
)
def test_column_checks_name_first_bad_line(tmp_path, row, message):
    # the only bad value in the file; blank lines count, so it is on line 5
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(COLUMNS) + "\r\n"
        "0,20,80,0,650,20,0.01,0\r\n"
        "\r\n"
        "300,20,80,0,650,20,0.01,0\r\n"
        + row + "\r\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"bad\.csv:5: {message}$"):
        read_records(path)


def test_timestamps_wrapping_around_int64_are_rejected(tmp_path):
    # the int64 difference of these two is 300
    path = tmp_path / "wrap.csv"
    path.write_text(
        ",".join(COLUMNS) + "\n"
        "9223372036854775807,20,80,0,650,20,0.01,0\n"
        "-9223372036854775509,20,80,0,650,20,0.01,0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"wrap\.csv:3: timestamp -9223372036854775509 does not increase"):
        read_records(path)


def test_empty_file_is_an_error(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file"):
        read_records(path)


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark that Excel's "CSV UTF-8" export writes


def test_byte_order_mark_is_skipped(tmp_path):
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(3))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_records(plain, series)
    marked.write_bytes(BOM + plain.read_bytes())
    expected, back = read_records(plain), read_records(marked)
    for name in COLUMNS:
        assert np.array_equal(getattr(back, name), getattr(expected, name)), name


def test_non_utf8_byte_after_a_byte_order_mark_names_its_line(tmp_path):
    series = generate_series(PRESETS["GH-A"], days=1, rng=SeededRng(4))
    path = tmp_path / "marked.csv"
    write_records(path, series)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(BOM + b"\n".join(lines))
    with pytest.raises(ValueError, match=r"marked\.csv:3: not valid UTF-8$"):
        read_records(path)
