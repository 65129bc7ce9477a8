from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from candlegate import market_data
from candlegate.forecaster import (
    EXTERNAL_HEADER_BASE,
    EXTERNAL_HEADER_FULL,
    ExternalForecaster,
    Forecast,
    Forecasts,
    Side,
    coverage_z,
    drift_forecast,
    is_up,
    linreg_forecast,
    load_external_forecasts,
    naive_forecast,
    save_external_forecasts,
    side_of,
)
from candlegate.indicators import volatilities
from candlegate.market_data import BLOCK, ParseError, Series, parse_csv, serialize_csv

from conftest import make_series, make_window
from oracles import least_squares_line, load_forecast_rows
from test_market_data import TIMESTAMP_LABELS


def _series_from_closes(closes):
    rows = ((86400 * i, c, c + 1.0, c - 1.0, c, 1.0) for i, c in enumerate(closes))
    return Series.from_rows("X", rows, "epoch")


def test_naive_path_repeats_last_close():
    s = _series_from_closes([98.0, 99.0, 100.0])
    f = naive_forecast(s.window(0, 3), horizon=3)
    assert f.path == (100.0, 100.0, 100.0)
    assert f.origin_index == 2
    assert f.horizon == 3


def test_naive_zero_volatility_zero_width():
    s = _series_from_closes([100.0] * 10)
    f = naive_forecast(s.window(0, 10), horizon=3)
    assert f.lower == f.path == f.upper


def test_naive_interval_uses_normal_quantile():
    rng = np.random.default_rng(12)
    w = make_window(rng, 30)
    f = naive_forecast(w, horizon=5, coverage=0.68)
    z_oracle = scipy_stats.norm.ppf(0.5 + 0.68 / 2)
    sigma_price = volatilities(w.closes[None, :])[0] * float(w.closes[-1])
    width_step1 = f.path[0] - f.lower[0]
    assert width_step1 == pytest.approx(z_oracle * sigma_price, rel=1e-9)
    assert coverage_z(0.68) == pytest.approx(z_oracle, rel=1e-12)


def test_drift_hand_case():
    s = _series_from_closes([100.0, 102.0, 104.0])
    f = drift_forecast(s.window(0, 3), horizon=2)
    assert f.path == pytest.approx((106.0, 108.0))


def test_drift_constant_closes():
    s = _series_from_closes([100.0] * 5)
    f = drift_forecast(s.window(0, 5), horizon=4)
    assert f.path == pytest.approx((100.0,) * 4)


def test_drift_path_differences_equal_mean_change():
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = make_window(rng, int(rng.integers(2, 50)))
        f = drift_forecast(w, horizon=6)
        closes = w.closes
        mean_change = float(np.diff(closes).mean())
        diffs = np.diff(f.path)
        assert diffs == pytest.approx([mean_change] * 5, rel=1e-9, abs=1e-12)


def test_linreg_continues_exact_line():
    closes = [3.0 * i + 50.0 for i in range(10)]
    s = _series_from_closes(closes)
    f = linreg_forecast(s.window(0, 10), horizon=3)
    assert f.path == pytest.approx((80.0, 83.0, 86.0), abs=1e-9)
    assert f.lower == pytest.approx(f.path, abs=1e-9)  # zero residual width


def test_linreg_constant_closes():
    s = _series_from_closes([42.0] * 8)
    f = linreg_forecast(s.window(0, 8), horizon=2)
    assert f.path == pytest.approx((42.0, 42.0), abs=1e-9)


def test_linreg_matches_normal_equations():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        w = make_window(rng, n)
        f = linreg_forecast(w, horizon=1)
        slope, intercept = least_squares_line(
            list(range(n)), [float(v) for v in w.closes]
        )
        assert f.path[0] == pytest.approx(intercept + slope * n, rel=1e-9)


def test_linreg_requires_two_points():
    s = _series_from_closes([5.0])
    with pytest.raises(ValueError):
        linreg_forecast(s.window(0, 1), horizon=1)


def test_direction_basic_and_tie():
    f_up = Forecast(0, (101.0,))
    f_tie = Forecast(0, (100.0,))
    assert side_of(f_up.path[-1], 100.0) is Side.UP
    assert side_of(f_tie.path[-1], 100.0) is Side.DOWN
    assert side_of(100.0, 100.0) is Side.DOWN
    assert side_of(float(np.nextafter(100.0, 101.0)), 100.0) is Side.UP
    assert is_up(np.array([101.0, 100.0, np.nextafter(100.0, 99.0)]), 100.0).tolist() == [True, False, False]


def test_direction_scale_invariant():
    rng = np.random.default_rng(15)
    for _ in range(100):
        last = float(rng.uniform(10, 1000))
        path = tuple(float(v) for v in rng.uniform(10, 1000, size=4))
        scale = float(rng.uniform(0.1, 10))
        f = Forecast(0, path)
        f_scaled = Forecast(0, tuple(v * scale for v in path))
        assert side_of(f.path[-1], last) == side_of(f_scaled.path[-1], last * scale)


def test_direction_agrees_with_predicted_return_sign():
    rng = np.random.default_rng(16)
    for _ in range(100):
        last = float(rng.uniform(50, 150))
        path = tuple(float(v) for v in rng.uniform(50, 150, size=3))
        f = Forecast(0, path)
        predicted_return = (path[-1] - last) / last
        expected = Side.UP if predicted_return > 0 else Side.DOWN
        assert side_of(f.path[-1], last) == expected


@pytest.mark.parametrize("builder", [naive_forecast, drift_forecast], ids=["naive_forecast", "drift_forecast"])
def test_interval_width_nondecreasing(builder):
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = make_window(rng, 30)
        f = builder(w, horizon=8)
        widths = [u - l for l, u in zip(f.lower, f.upper)]
        assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))


def test_forecast_interval_validation():
    with pytest.raises(ValueError):
        Forecast(0, (100.0,), lower=(101.0,), upper=(102.0,))
    with pytest.raises(ValueError):
        Forecast(0, (100.0,), lower=(99.0,), upper=None)
    with pytest.raises(ValueError):
        Forecast(0, (100.0, 100.0), lower=(99.0,), upper=(101.0,))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "path, lower, upper, message",
    [
        ((), None, None, "forecast path is empty"),
        ((NAN, 1.0), None, None, "forecast values must be finite"),
        ((INF,), None, None, "forecast values must be finite"),
        ((1.0, -INF), None, None, "forecast values must be finite"),
        ((1.0,), (-INF,), (2.0,), "forecast values must be finite"),
        ((1.0,), (0.0,), (NAN,), "forecast values must be finite"),
        ((INF,), (0.0,), (INF,), "forecast values must be finite"),
        ((1.0, 2.0), (0.0, 2.5), (3.0, 3.0), "interval must bracket the path pointwise"),
    ],
)
def test_forecast_and_forecasts_share_the_invariants(path, lower, upper, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Forecast(0, path, lower, upper)
    interval = () if lower is None else ([lower], [upper])
    with pytest.raises(ValueError, match=f"^{message}$"):
        Forecasts([0], [path], *interval)


def test_forecasts_report_the_first_fault_of_the_first_faulty_row():
    paths = np.full((4, 3), 100.0)
    lower, upper = paths - 1.0, paths + 1.0
    lower[1, 2] = 100.5  # row 1 is not bracketed; row 2 is also non-finite
    paths[2, 0] = NAN
    with pytest.raises(ValueError, match="^interval must bracket the path pointwise$"):
        Forecasts(np.arange(4), paths, lower, upper)
    lower[1, 2] = 99.0
    with pytest.raises(ValueError, match="^forecast values must be finite$"):
        Forecasts(np.arange(4), paths, lower, upper)


def test_forecasts_columns_are_read_only_copies_and_rows_read_as_forecasts():
    paths = np.array([[1.0, 2.0], [3.0, 4.0]])
    forecasts = Forecasts([7, 9], paths, paths - 0.5, paths + 0.5)
    paths[0, 0] = 99.0
    assert forecasts.paths[0, 0] == 1.0 and forecasts.horizon == 2 and len(forecasts) == 2
    with pytest.raises(ValueError):
        forecasts.paths[0, 0] = 5.0
    assert forecasts[-1] == Forecast(9, (3.0, 4.0), (2.5, 3.5), (3.5, 4.5))
    assert list(forecasts) == [forecasts[0], forecasts[1]]
    assert Forecasts.stack(list(forecasts)).paths.tobytes() == forecasts.paths.tobytes()
    with pytest.raises(IndexError):
        forecasts[2]
    with pytest.raises(ValueError, match="shapes"):
        Forecasts([1, 2, 3], paths)


def test_stacking_needs_one_horizon_and_intervals_on_all_or_none():
    with pytest.raises(ValueError, match=r"differ in horizon: \[1, 2\]"):
        Forecasts.stack([Forecast(0, (1.0,)), Forecast(1, (1.0, 2.0))])
    with pytest.raises(ValueError, match="intervals, or none"):
        Forecasts.stack([Forecast(0, (1.0,)), Forecast(1, (1.0,), (0.5,), (1.5,))])


EXTERNAL = """origin_timestamp,step,predicted_close
2024-01-10,1,101.5
2024-01-10,2,102.5
2024-01-10,3,103.5
2024-01-10,4,104.5
2024-01-10,5,105.5
2024-01-10,6,106.5
2024-01-10,7,107.5
"""


def test_load_external_single_origin():
    items = load_external_forecasts(EXTERNAL)
    assert len(items) == 1
    ts, forecast = items[0]
    assert forecast.horizon == 7
    assert forecast.path[0] == 101.5
    assert forecast.lower is None


def test_load_external_missing_step():
    broken = EXTERNAL.replace("2024-01-10,4,104.5\n", "")
    with pytest.raises(ValueError, match="2024-01-10.*contiguous"):
        load_external_forecasts(broken)


def test_load_external_ungrouped_rows():
    text = (
        "origin_timestamp,step,predicted_close\n"
        "2024-01-10,1,101.5\n"
        "2024-01-11,1,102.5\n"
        "2024-01-10,2,103.5\n"
    )
    with pytest.raises(ValueError, match="grouped"):
        load_external_forecasts(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("origin,step,close\n2024-01-10,1,101.5\n", "line 1: expected header"),
        ("origin_timestamp,step,predicted_close\n2024-01-10,1\n", "line 2: expected 3 fields"),
        ("origin_timestamp,step,predicted_close\n2024-13-40,1,101.5\n", "line 2: timestamp"),
        ("origin_timestamp,step,predicted_close\n2024-01-10,1.5,101.5\n", "line 2: step '1.5'"),
        ("origin_timestamp,step,predicted_close\n2024-01-10,1,abc\n", "line 2: non-numeric"),
        ("origin_timestamp,step,predicted_close\n2024-01-10,1,nan\n", "line 2: non-finite"),
        (
            "origin_timestamp,step,predicted_close,lower,upper\n"
            "2024-01-10,1,101.5,100.5,102.5\n2024-01-10,2,101.5,-inf,102.5\n",
            "line 3: non-finite",
        ),
        (
            "origin_timestamp,step,predicted_close,lower,upper\n"
            "2024-01-10,1,101.5,100.5,nan\n",
            "line 2: non-finite",
        ),
        (
            "origin_timestamp,step,predicted_close\n"
            "2024-01-10,1,101.5\n2024-01-11,1,102.5\n2024-01-10,2,103.5\n",
            "line 4: rows for origin 2024-01-10 are not grouped",
        ),
    ],
    ids=[
        "header", "field_count", "timestamp", "step", "non_numeric",
        "nan_close", "inf_lower", "nan_upper", "ungrouped",
    ],
)
def test_load_external_rejects_bad_rows_with_line(text, message):
    with pytest.raises(ParseError, match=message):
        load_external_forecasts(text)


@pytest.mark.parametrize("step", ["9223372036854775808", "-99999999999999999999999"])
def test_load_external_names_steps_beyond_64_bits(step):
    text = f"origin_timestamp,step,predicted_close\n2024-01-10,1,1.0\n2024-01-10,{step},2.0\n"
    with pytest.raises(ParseError) as excinfo:
        load_external_forecasts(text)
    got = sorted([1, int(step)])
    assert str(excinfo.value) == f"line 2: origin 2024-01-10: steps must be contiguous from 1, got {got}"


def test_load_external_reports_undecodable_byte_with_line():
    data = EXTERNAL.encode().replace(b"2024-01-10,3,103.5", b"2024-01-10,3,103.5\xc3")
    with pytest.raises(ParseError, match="^line 4: invalid UTF-8 byte 0xc3$"):
        load_external_forecasts(data)


@pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
def test_load_external_strips_byte_order_marks(encode):
    text = "\ufeff" + EXTERNAL
    assert load_external_forecasts(text.encode() if encode else text) == load_external_forecasts(EXTERNAL)
    with pytest.raises(ParseError, match="^line 3: step 'x'"):
        load_external_forecasts("\ufeff\ufeff" + EXTERNAL.replace("2024-01-10,2,", "2024-01-10,x,"))


def test_load_external_reports_a_carriage_return_inside_a_field_with_line():
    with pytest.raises(ParseError, match="^line 4: new-line character seen in unquoted field"):
        load_external_forecasts(EXTERNAL.replace("2024-01-10,3,103.5", "2024-01-10,3,10\r3.5").encode())


def test_load_external_unknown_origin():
    series = _series_from_closes([100.0, 101.0])
    with pytest.raises(ValueError, match="not present in series"):
        load_external_forecasts(EXTERNAL, series=series)


def test_load_external_binds_origin_index():
    rng = np.random.default_rng(18)
    series = make_series(rng, 10)
    ts = int(series.timestamps[4])
    text = f"origin_timestamp,step,predicted_close\n{ts},1,123.0\n"
    items = load_external_forecasts(text, series=series)
    assert items[0][1].origin_index == 4


def test_external_roundtrip_with_intervals():
    rng = np.random.default_rng(19)
    items = []
    for i in range(3):
        w = make_window(rng, 20)
        f = drift_forecast(w, horizon=5)
        items.append((1_700_000_000 + 86_400 * i, f))
    text = save_external_forecasts(items, timestamp_format="epoch")
    reloaded = load_external_forecasts(text)
    assert [(ts, f.path, f.lower, f.upper) for ts, f in items] == [
        (ts, f.path, f.lower, f.upper) for ts, f in reloaded
    ]


def test_save_external_rejects_mixed_intervals():
    with_iv = Forecast(0, (1.0,), lower=(0.5,), upper=(1.5,))
    without = Forecast(0, (1.0,))
    with pytest.raises(ValueError, match="intervals"):
        save_external_forecasts([(0, with_iv), (86400, without)])


DAY = 86_400
VALUE = st.floats(min_value=-1e12, max_value=1e12)
# Faults that read a cell come before those that break cells or rows; "none" plants nothing.
FORECAST_FAULTS = ("none", "gap", "bracket", "ungrouped", "timestamp", "step", "non_numeric", "non_finite",
                   "field_count")


def _day_label(day: int, flavour: str) -> str:
    return str(day * DAY) if flavour == "epoch" else date.fromordinal(719163 + day).isoformat()


def _plant_forecast_fault(draw, kind, rows, has_interval):
    """Plant one fault of the given kind in a drawn row."""
    i = draw(st.integers(0, len(rows) - 1))
    cells = rows[i]
    try:
        if kind == "gap":
            cells[1] = str(int(cells[1]) + draw(st.integers(1, 3)))
        elif kind == "bracket" and has_interval:
            # The path leaves the interval above on odd rows, below on even rows.
            cells[2] = repr(float(cells[4]) + 1.0) if i % 2 else repr(float(cells[3]) - 1.0)
    except ValueError:
        pass  # an earlier fault already broke the cell
    if kind == "ungrouped":
        rows[-1][0] = rows[0][0]
    elif kind == "timestamp":
        cells[0] = draw(st.sampled_from(["2024-13-40", "yesterday", "1.5e9"]))
    elif kind == "step":
        cells[1] = draw(st.sampled_from(["1.5", "one", ""]))
    elif kind == "non_numeric":
        cells[draw(st.integers(2, len(cells) - 1))] = "abc"
    elif kind == "non_finite":
        cells[draw(st.integers(2, len(cells) - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "field_count":
        if draw(st.booleans()):
            cells.pop()
        else:
            cells.append("1.0")


@st.composite
def forecast_rows(draw):
    """(has_interval, rows): up to 4 origins of 1-4 steps each, grouped, steps in any
    order, and up to 2 planted faults.  Each row is a list of cell strings."""
    has_interval = draw(st.booleans())
    flavour = draw(st.sampled_from(["epoch", "iso"]))
    rows = []
    for day in draw(st.lists(st.integers(19_000, 19_100), min_size=1, max_size=4, unique=True)):
        steps = list(range(1, draw(st.integers(1, 4)) + 1))
        for step in draw(st.permutations(steps)):
            lower, path, upper = sorted(draw(st.lists(VALUE, min_size=3, max_size=3)))
            interval = [repr(lower), repr(upper)] if has_interval else []
            rows.append([_day_label(day, flavour), str(step), repr(path), *interval])
    for kind in sorted(draw(st.lists(st.sampled_from(FORECAST_FAULTS), min_size=1, max_size=2)),
                       key=FORECAST_FAULTS.index):
        _plant_forecast_fault(draw, kind, rows, has_interval)
    return has_interval, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(forecast_rows())
def test_load_external_matches_row_at_a_time_reference(case):
    _assert_load_matches_reference(case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(forecast_rows())
def test_load_external_matches_reference_across_blocks(case):
    # Blocks of 3 rows: the drawn files of up to 16 rows cross block boundaries.
    with mock.patch.object(market_data, "BLOCK", 3):
        _assert_load_matches_reference(case)


def _assert_load_matches_reference(case):
    has_interval, rows = case
    header = EXTERNAL_HEADER_FULL if has_interval else EXTERNAL_HEADER_BASE
    text = header + "\n" + "".join(",".join(cells) + "\n" for cells in rows)
    expected, fault = load_forecast_rows(rows, has_interval)
    if fault is not None:
        line, message = fault
        with pytest.raises(ParseError) as excinfo:
            load_external_forecasts(text)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"
        return
    loaded = load_external_forecasts(text)
    assert [(ts, f.origin_index, f.path, f.lower, f.upper) for ts, f in loaded] == [
        (ts, -1, path, lower, upper) for ts, path, lower, upper in expected
    ]


def _forecast_file_rows(origins, horizon=3):
    """Interval rows of consecutive daily origins, steps in order."""
    return [
        [_day_label(day, "iso"), str(step), "100.0", "99.0", "101.0"]
        for day in range(19_000, 19_000 + origins)
        for step in range(1, horizon + 1)
    ]


@pytest.mark.parametrize(
    "faults",
    [
        *([(row, kind)] for kind in ("non_numeric", "non_finite", "bracket", "gap", "ungrouped")
          for row in (BLOCK - 1, BLOCK, BLOCK + 1)),
        [(BLOCK - 1, "ungrouped"), (BLOCK + 1, "non_numeric")],
        [(BLOCK - 1, "bracket"), (BLOCK, "non_numeric")],
        [(BLOCK + 1, "gap"), (BLOCK - 1, "bracket")],
    ],
    ids=lambda faults: "+".join(f"{kind}@{row - BLOCK:+d}" for row, kind in faults),
)
def test_load_external_names_the_first_fault_near_a_block_boundary(faults):
    rows = _forecast_file_rows(BLOCK)
    for row, kind in faults:
        if kind == "non_numeric":
            rows[row][3] = "abc"
        elif kind == "non_finite":
            rows[row][4] = "inf"
        elif kind == "bracket":
            rows[row][2] = "102.0"
        elif kind == "gap":
            rows[row][1] = "7"
        elif kind == "ungrouped":
            rows[row][0] = rows[0][0]
    _, (line, message) = load_forecast_rows(rows, True)
    text = EXTERNAL_HEADER_FULL + "\n" + "".join(",".join(cells) + "\n" for cells in rows)
    with pytest.raises(ParseError) as excinfo:
        load_external_forecasts(text.encode())
    assert str(excinfo.value) == f"line {line}: {message}"


@pytest.mark.parametrize("label, expected", TIMESTAMP_LABELS.items(), ids=ascii)
@pytest.mark.parametrize("preceding", [0, 4 * BLOCK])
def test_load_external_reads_pinned_timestamp_labels(label, expected, preceding):
    """The label on the first data row, or on the first row of the fifth block."""
    rows = [[str(day), "1", "100.0"] for day in range(preceding)]
    text = EXTERNAL_HEADER_BASE + "\n" + "".join(",".join(cells) + "\n" for cells in rows)
    text += f"{label},1,100.0\n"
    if isinstance(expected, str):
        with pytest.raises(ParseError) as excinfo:
            load_external_forecasts(text.encode())
        assert str(excinfo.value) == f"line {preceding + 2}: timestamp {label.strip()!r} {expected}"
        return
    assert load_external_forecasts(text.encode())[-1][0] == expected[0]


@pytest.mark.parametrize("preceding", [1, 4 * BLOCK])
def test_load_external_mixes_timestamp_flavours(preceding):
    days = range(2 * preceding)
    for flavours in (("iso", "epoch"), ("epoch", "iso")):
        rows = [[_day_label(day, flavours[day >= preceding]), "1", "100.0"] for day in days]
        text = EXTERNAL_HEADER_BASE + "\n" + "".join(",".join(cells) + "\n" for cells in rows)
        assert [ts for ts, _ in load_external_forecasts(text.encode())] == [day * DAY for day in days]


@pytest.mark.parametrize("with_interval", [False, True])
def test_external_forecaster_columns_match_the_loaded_forecasts(with_interval):
    rng = np.random.default_rng(31)
    series = make_series(rng, 2 * BLOCK)
    origins = rng.permutation(np.arange(10, 2 * BLOCK))[:BLOCK]
    items = [(int(series.timestamps[o]), drift_forecast(series.window(o - 9, o + 1), 4)) for o in origins]
    if not with_interval:
        items = [(ts, Forecast(f.origin_index, f.path)) for ts, f in items]
    text = save_external_forecasts(items, series.timestamp_format)
    ext = ExternalForecaster.load(text.encode(), series, 4)
    loaded = sorted(load_external_forecasts(text, series), key=lambda item: item[0])
    stacked = Forecasts.stack([f for _, f in loaded])
    assert ext.timestamps.tolist() == [ts for ts, _ in loaded]
    assert ext.table.origins.tolist() == stacked.origins.tolist() == sorted(origins.tolist())
    for name in ("paths", "lower", "upper"):
        got, want = getattr(ext.table, name), getattr(stacked, name)
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


@st.composite
def saved_forecasts(draw):
    """(items, flavour): forecasts as the loader returns them without a series."""
    flavour = draw(st.sampled_from(["epoch", "iso"]))
    has_interval = draw(st.booleans())
    days = st.integers(0, 2_900_000) if flavour == "iso" else st.integers(-(10**9), 10**9)
    items = []
    for day in draw(st.lists(days, min_size=1, max_size=5, unique=True)):
        triples = draw(st.lists(st.lists(VALUE, min_size=3, max_size=3).map(sorted), min_size=1, max_size=4))
        lower, path, upper = (tuple(column) for column in zip(*triples))
        if not has_interval:
            lower = upper = None
        items.append((day * DAY if flavour == "iso" else day, Forecast(-1, path, lower, upper)))
    return items, flavour


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(saved_forecasts())
def test_save_then_load_returns_the_input(case):
    items, flavour = case
    assert load_external_forecasts(save_external_forecasts(items, flavour)) == items
