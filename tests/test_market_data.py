import sys
import tracemalloc
from array import array
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from candlegate import market_data
from candlegate.forecaster import load_external_forecasts
from candlegate.market_data import (
    BLOCK,
    ParseError,
    Series,
    ValidationError,
    _parse_timestamp,
    _timestamps,
    parse_csv,
    serialize_csv,
)

from conftest import make_series
from oracles import first_row_fault

HEADER = "timestamp,open,high,low,close,volume"


def test_parse_single_row():
    text = f"{HEADER}\n2025-07-08,108000,109000,107000,108100,123.4\n"
    series = parse_csv(text, symbol="BTC")
    assert len(series) == 1
    c = [series.opens[0], series.highs[0], series.lows[0], series.closes[0], series.volumes[0]]
    assert c == [108000, 109000, 107000, 108100, 123.4]
    assert series.symbol == "BTC"
    assert series.timestamp_format == "iso"


def test_parse_rejects_high_below_low():
    text = f"{HEADER}\n2025-07-08,100,90,105,100,1\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_csv(text)


def test_parse_rejects_wrong_arity():
    text = f"{HEADER}\n2025-07-08,100,101,99\n"
    with pytest.raises(ParseError, match="line 2.*6 fields"):
        parse_csv(text)


def test_parse_rejects_non_numeric():
    text = f"{HEADER}\n2025-07-08,100,101,99,abc,1\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_csv(text)


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_csv("date,o,h,l,c,v\n2025-07-08,1,1,1,1,1\n")


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="empty input"):
        parse_csv("")
    with pytest.raises(ParseError, match="empty input"):
        parse_csv(f"{HEADER}\n")


@pytest.mark.parametrize("text", ["\ufeff", "\ufeff \n", " \r \n", "\u3000\n\n", b"\xef\xbb\xbf\t\r\n"])
def test_parse_rejects_blank_input(text):
    with pytest.raises(ParseError, match="^empty input: no header or data rows$"):
        parse_csv(text)


def test_parse_rejects_mixed_timestamp_formats():
    text = f"{HEADER}\n2025-07-08,100,101,99,100,1\n1752000000,100,101,99,100,1\n"
    with pytest.raises(ParseError, match="line 3.*timestamp format"):
        parse_csv(text)


@pytest.mark.parametrize("second_day", ["2025-07-09", "2025-07-07"])
def test_parse_rejects_unordered_timestamps_with_line(second_day):
    text = (
        f"{HEADER}\n2025-07-08,100,101,99,100,1\n2025-07-09,100,101,99,100,1\n"
        f"{second_day},100,101,99,100,1\n"
    )
    with pytest.raises(ParseError, match="line 4.*strictly increasing"):
        parse_csv(text)


def test_parse_rejects_out_of_range_epoch():
    text = f"{HEADER}\n{2**63},100,101,99,100,1\n"
    with pytest.raises(ParseError, match="line 2.*64-bit range"):
        parse_csv(text)


@pytest.mark.parametrize("line", [1, 2, 3])
def test_parse_reports_undecodable_byte_with_line(line):
    lines = [HEADER.encode(), b"2024-01-01,100,101,99,100,1", b"2024-01-02,100,101,99,100,1"]
    lines[line - 1] += b"\xfe"
    with pytest.raises(ParseError, match=f"^line {line}: invalid UTF-8 byte 0xfe$"):
        parse_csv(b"\r\n".join(lines) + b"\r\n")


@pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
def test_parse_strips_byte_order_marks(encode):
    text = f"\ufeff{HEADER}\n2025-07-08,100,101,99,100,1\n2025-07-09,100,101,99,100,1\n"
    series = parse_csv(text.encode() if encode else text)
    assert series.timestamps.tolist() == [1751932800, 1752019200]
    with pytest.raises(ParseError, match="^line 3: non-numeric"):
        parse_csv("\ufeff\ufeff" + text.replace("2025-07-09,100", "2025-07-09,x"))


def test_parse_reports_a_carriage_return_inside_a_field_with_line():
    text = f"{HEADER}\n2025-07-08,100,101,99,100,1\n2025-07-09,100,1\r01,99,100,1\n"
    with pytest.raises(ParseError, match="^line 3: new-line character seen in unquoted field"):
        parse_csv(text.encode())


def test_parse_accepts_crlf():
    text = f"{HEADER}\r\n2025-07-08,100,101,99,100,1\r\n"
    assert len(parse_csv(text)) == 1


def test_ninety_row_roundtrip():
    rng = np.random.default_rng(0)
    series = make_series(rng, 90)
    text = serialize_csv(series)
    reparsed = parse_csv(text, symbol=series.symbol)
    assert len(reparsed) == 90
    assert np.all(np.diff(reparsed.timestamps) > 0)
    assert_same_columns(reparsed, series)
    # parse -> serialize -> parse is identity
    assert_same_columns(parse_csv(serialize_csv(reparsed), symbol=series.symbol), reparsed)


def test_iso_serialize_roundtrip():
    text = f"{HEADER}\n2025-07-08,108000.5,109000.25,107000.125,108100.0,123.4\n"
    series = parse_csv(text, symbol="s")
    assert_same_columns(parse_csv(serialize_csv(series), symbol="s"), series)


def assert_same_columns(a, b):
    assert (a.symbol, a.timestamp_format) == (b.symbol, b.timestamp_format)
    for column_a, column_b in zip(a.columns, b.columns):
        assert np.array_equal(column_a, column_b)


def _row(ts=0, o=100.0, h=101.0, l=99.0, c=100.0, v=1.0):
    return (ts, o, h, l, c, v)


def test_validate_is_identity_on_valid_series():
    rows = [_row(0), _row(86400, c=100.5)]
    series = Series.from_rows("X", rows, "epoch")
    assert list(zip(*(column.tolist() for column in series.columns))) == rows
    # rebuilding from the columns checks them again and keeps them
    again = Series("X", *series.columns, "epoch")
    assert_same_columns(again, series)
    assert again != series  # series compare by identity
    with pytest.raises(ValueError, match="read-only"):
        series.closes[0] = 1.0


def test_validate_rejects_equal_timestamps():
    with pytest.raises(ValidationError, match="candle 1.*strictly increasing"):
        Series.from_rows("X", [_row(0), _row(0)], "epoch")


def test_validate_rejects_out_of_order():
    with pytest.raises(ValidationError, match="candle 1"):
        Series.from_rows("X", [_row(86400), _row(0)], "epoch")


def test_validate_rejects_negative_volume():
    with pytest.raises(ValidationError, match="volume"):
        Series.from_rows("X", [_row(v=-1.0)], "epoch")


def test_validate_rejects_empty_series():
    with pytest.raises(ValidationError, match="empty"):
        Series.from_rows("X", [], "epoch")


PRICE = st.floats(min_value=1e-3, max_value=1e6)
DAY = 86_400
FAULTS = ("nan", "price", "volume", "low_above_high", "body", "timestamp", "non_numeric")


def _plant(draw, kind, rows, i, step):
    """Plant one fault of the given kind in row i."""
    cells = rows[i][1]
    if kind == "nan":
        cells[draw(st.integers(0, 4))] = "nan"
    elif kind == "price":
        cells[draw(st.integers(0, 3))] = draw(st.sampled_from(["0.0", "-1.5"]))
    elif kind == "volume":
        cells[4] = repr(-float(cells[4]) - 1.0)
    elif kind == "low_above_high":
        cells[1], cells[2] = cells[2], cells[1]
    elif kind == "body":
        # Open, close or both leave the range, each above the high or below the low.
        for field in draw(st.sampled_from([(0,), (3,), (0, 3)])):
            high, low = float(cells[1]), float(cells[2])
            cells[field] = repr(high * 2.0) if draw(st.booleans()) else repr(low / 2.0)
    elif kind == "timestamp" and i > 0:
        rows[i][0] = rows[i - 1][0] - step * draw(st.integers(0, 3))
    elif kind == "non_numeric":
        cells[draw(st.integers(0, 4))] = "abc"


@st.composite
def csv_rows(draw):
    """(flavour, rows): up to 8 valid rows of (timestamp, cells), then 0-2 planted faults.

    Both faults often land in one row, so the order of checks within a row is tested.
    """
    flavour = draw(st.sampled_from(["epoch", "iso"]))
    step = DAY if flavour == "iso" else 1
    ts = 1_700_000_000 // DAY * DAY
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        ts += step * draw(st.integers(1, 5))
        low, body_a, body_b, high = sorted(draw(st.lists(PRICE, min_size=4, max_size=4)))
        o, c = (body_a, body_b) if draw(st.booleans()) else (body_b, body_a)
        v = draw(st.floats(min_value=0.0, max_value=1e9))
        rows.append([ts, [repr(x) for x in (o, high, low, c, v)]])
    faulty = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2))
    # Non-numeric cells are planted last, so every other fault can read the row.
    for kind in sorted(draw(st.lists(st.sampled_from(FAULTS), max_size=2)), key=FAULTS.index):
        _plant(draw, kind, rows, draw(st.sampled_from(faulty)), step)
    return flavour, rows


def _csv_text(flavour, rows):
    def label(ts):
        return str(ts) if flavour == "epoch" else date.fromordinal(719163 + ts // DAY).isoformat()

    return HEADER + "\n" + "".join(f"{label(ts)},{','.join(cells)}\n" for ts, cells in rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csv_rows())
def test_parse_matches_row_at_a_time_reference(case):
    _assert_parse_matches_reference(case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csv_rows())
def test_parse_matches_reference_across_blocks(case):
    # Blocks of 3 rows: the drawn files of up to 8 rows cross block boundaries.
    with mock.patch.object(market_data, "BLOCK", 3):
        _assert_parse_matches_reference(case)


def _assert_parse_matches_reference(case):
    flavour, rows = case
    text = _csv_text(flavour, rows)
    fault = first_row_fault(rows)
    if fault is not None:
        index, message = fault
        with pytest.raises(ParseError) as excinfo:
            parse_csv(text)
        assert excinfo.value.line == index + 2
        assert str(excinfo.value) == f"line {index + 2}: {message}"
        return
    series = parse_csv(text)
    assert series.timestamp_format == flavour
    expected = [np.array([ts for ts, _ in rows], dtype=np.int64)] + [
        np.array([float(cells[k]) for _, cells in rows]) for k in range(5)
    ]
    reparsed = parse_csv(serialize_csv(series))
    assert reparsed.timestamp_format == flavour
    for got, again, column in zip(series.columns, reparsed.columns, expected):
        assert got.tobytes() == column.tobytes()
        assert again.tobytes() == column.tobytes()


def _valid_rows(n, flavour="iso", end=None):
    """n valid rows of consecutive timestamps, ending one step before ``end`` if given."""
    step = DAY if flavour == "iso" else 1
    first = step if end is None else end - step * n
    return [[first + step * i, ["100.0", "101.5", "99.25", "100.5", "7.0"]] for i in range(n)]


@pytest.mark.parametrize(
    "faults",
    [
        *([(row, "non_numeric")] for row in (BLOCK - 1, BLOCK, BLOCK + 1)),
        *([(row, "body")] for row in (BLOCK - 1, BLOCK, BLOCK + 1)),
        *([(row, "timestamp")] for row in (BLOCK - 1, BLOCK, BLOCK + 1)),
        [(BLOCK - 1, "body"), (BLOCK + 1, "non_numeric")],
        [(BLOCK - 1, "timestamp"), (BLOCK, "non_numeric")],
        [(BLOCK + 1, "nan"), (BLOCK + 1, "non_numeric")],
    ],
    ids=lambda faults: "+".join(f"{kind}@{row - BLOCK:+d}" for row, kind in faults),
)
def test_parse_names_the_first_fault_near_a_block_boundary(faults):
    rows = _valid_rows(3 * BLOCK)
    for row, kind in faults:
        if kind == "non_numeric":
            rows[row][1][3] = "abc"
        elif kind == "nan":
            rows[row][1][0] = "nan"
        elif kind == "body":
            rows[row][1][0] = "150.0"
        elif kind == "timestamp":
            rows[row][0] = rows[row - 1][0]
    index, message = first_row_fault(rows)
    with pytest.raises(ParseError) as excinfo:
        parse_csv(_csv_text("iso", rows).encode())
    assert str(excinfo.value) == f"line {index + 2}: {message}"


# How each label reads: (epoch seconds, flavour), or the end of its error message.
WEEK_DATE = (1751932800, "iso") if sys.version_info >= (3, 11) else "is neither epoch seconds nor an ISO date"
TIMESTAMP_LABELS = {
    "20250708": (20250708, "epoch"),
    " 2025-07-08 ": (1751932800, "iso"),
    "2025-07-08": (1751932800, "iso"),
    "2025-W28-2": WEEK_DATE,
    "2025-07-08T00:00:00": "is neither epoch seconds nor an ISO date",
    "2024-02-30": "is neither epoch seconds nor an ISO date",
    "0000-01-01": "is neither epoch seconds nor an ISO date",
    "1900-03-01": (-2203891200, "iso"),
    "9999-12-31": (253402214400, "iso"),
    "\uff12\uff10\uff12\uff15-\uff10\uff17-\uff10\uff18": "is neither epoch seconds nor an ISO date",
    "\u0662\u0660\u0662\u0665-\u0660\u0667-\u0660\u0668": "is neither epoch seconds nor an ISO date",
    "\uff11\uff17" + "\uff10" * 8: (1700000000, "epoch"),
    "1_700_000_000": (1700000000, "epoch"),
    "+1700000000": (1700000000, "epoch"),
}


@pytest.mark.parametrize("label, expected", TIMESTAMP_LABELS.items(), ids=ascii)
@pytest.mark.parametrize("preceding", [0, 4 * BLOCK])
def test_parse_reads_pinned_timestamp_labels(label, expected, preceding):
    """The label on the first data row, or on the first row of the fifth block."""
    flavour, end = expected[::-1] if isinstance(expected, tuple) else ("iso", None)
    text = _csv_text(flavour, _valid_rows(preceding, flavour, end)) + f"{label},100,101,99,100,1\n"
    if isinstance(expected, str):
        with pytest.raises(ParseError) as excinfo:
            parse_csv(text.encode())
        assert str(excinfo.value) == f"line {preceding + 2}: timestamp {label.strip()!r} {expected}"
        return
    series = parse_csv(text.encode())
    assert (series.timestamps[-1], series.timestamp_format) == expected


@pytest.mark.parametrize("preceding", [1, 4 * BLOCK])
@pytest.mark.parametrize("first, then", [("iso", "epoch"), ("epoch", "iso")])
def test_parse_rejects_a_flavour_change_after_a_block_boundary(first, then, preceding):
    text = _csv_text(first, _valid_rows(preceding, first))
    text += "2099-01-01,100,101,99,100,1\n" if then == "iso" else "4102444800,100,101,99,100,1\n"
    with pytest.raises(ParseError) as excinfo:
        parse_csv(text.encode())
    assert str(excinfo.value) == (
        f"line {preceding + 2}: inconsistent timestamp format ({then!r} after {first!r})"
    )


# Labels a block of plain ISO dates must not convert as one vector: NumPy reads
# year 0, the date module does not; the others are not dates or hold a newline.
PLANTED_DAYS = ("0000-01-01", "2024-02-30", "2023-02-29", "2024-13-01", "2024-00-10", "2024-01-00",
                "2024-01\n-05", "2024-01-05\n2024-01-06")


@st.composite
def timestamp_labels(draw, lead: int = 0):
    """Labels of consecutive days from ``lead`` + 1..12 rows, some replaced at random rows.

    A replacement is a planted non-date, or the row's own day as epoch seconds,
    padded, or quoted with a trailing newline, so the rows stay in order.
    """
    first = draw(st.integers(date(1950, 1, 1).toordinal(), date(2090, 1, 1).toordinal()))
    n = lead + draw(st.integers(1, 12))
    labels = [date.fromordinal(first + i).isoformat() for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(lead, n - 1))
        epoch = (first + i - date(1970, 1, 1).toordinal()) * DAY
        labels[i] = draw(st.sampled_from([*PLANTED_DAYS, str(epoch), f" {labels[i]} ", f"{labels[i]}\n"]))
    return labels


def _label_cell(label):
    return f'"{label}"' if "\n" in label else label


def _assert_labels_read_as_one_at_a_time(labels):
    """_timestamps, parse_csv and load_external_forecasts against _parse_timestamp per label."""
    readings = {}  # line: (epoch, flavour) of each well-formed label
    faults = []  # (line, message) of each malformed label
    for line, label in enumerate(labels, start=2):
        try:
            readings[line] = _parse_timestamp(label)
        except ValueError as exc:
            faults.append((line, str(exc)))
    epochs = [epoch for epoch, _ in readings.values()]
    if faults:
        with pytest.raises(ValueError):
            _timestamps(labels)
    else:
        assert _timestamps(labels) == (array("q", epochs), {f for _, f in readings.values()})

    # A market file also needs one flavour, which its first row sets.
    flavour = readings.get(2, (None, None))[1]
    market_faults = faults + [
        (line, f"inconsistent timestamp format ({f!r} after {flavour!r})")
        for line, (_, f) in readings.items() if f != flavour
    ]
    market = HEADER + "\n" + "".join(f"{_label_cell(label)},100,101,99,100,1\n" for label in labels)
    forecasts = "origin_timestamp,step,predicted_close\n" + "".join(
        f"{_label_cell(label)},1,100.5\n" for label in labels
    )
    for read, text, fault in ((parse_csv, market, min(market_faults, default=None)),
                              (load_external_forecasts, forecasts, min(faults, default=None))):
        if fault is not None:
            with pytest.raises(ParseError) as excinfo:
                read(text)
            assert (excinfo.value.line, str(excinfo.value)) == (fault[0], f"line {fault[0]}: {fault[1]}")
    if not market_faults:
        series = parse_csv(market)
        assert (series.timestamps.tolist(), series.timestamp_format) == (epochs, flavour)
    if not faults:
        assert [ts for ts, _ in load_external_forecasts(forecasts)] == epochs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(timestamp_labels())
def test_block_date_conversion_matches_per_label_parsing_across_blocks(labels):
    # Blocks of 3 rows: the planted labels land in every position of a block.
    with mock.patch.object(market_data, "BLOCK", 3):
        _assert_labels_read_as_one_at_a_time(labels)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(timestamp_labels(lead=BLOCK - 6))
def test_block_date_conversion_matches_per_label_parsing(labels):
    # The planted labels land in the last rows of the first block or the first of the second.
    _assert_labels_read_as_one_at_a_time(labels)


def test_parse_peak_memory_is_at_most_three_times_the_input():
    data = serialize_csv(make_series(np.random.default_rng(7), 20_000)).encode()
    tracemalloc.start()
    try:
        parse_csv(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(data), f"peak {peak} bytes for {len(data)} input bytes"
