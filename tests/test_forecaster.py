import numpy as np
import pytest
from scipy import stats as scipy_stats

from candlegate.forecaster import (
    Forecast,
    Side,
    coverage_z,
    direction_of,
    drift_forecast,
    linreg_forecast,
    load_external_forecasts,
    naive_forecast,
    save_external_forecasts,
)
from candlegate.indicators import realized_volatility
from candlegate.market_data import ParseError, Series, parse_csv, serialize_csv

from conftest import make_series, make_window
from oracles import least_squares_line


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
    sigma_price = realized_volatility(w) * float(w.closes[-1])
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
    assert direction_of(f_up, 100.0) is Side.UP
    assert direction_of(f_tie, 100.0) is Side.DOWN


def test_direction_scale_invariant():
    rng = np.random.default_rng(15)
    for _ in range(100):
        last = float(rng.uniform(10, 1000))
        path = tuple(float(v) for v in rng.uniform(10, 1000, size=4))
        scale = float(rng.uniform(0.1, 10))
        f = Forecast(0, path)
        f_scaled = Forecast(0, tuple(v * scale for v in path))
        assert direction_of(f, last) == direction_of(f_scaled, last * scale)


def test_direction_agrees_with_predicted_return_sign():
    rng = np.random.default_rng(16)
    for _ in range(100):
        last = float(rng.uniform(50, 150))
        path = tuple(float(v) for v in rng.uniform(50, 150, size=3))
        f = Forecast(0, path)
        predicted_return = (path[-1] - last) / last
        expected = Side.UP if predicted_return > 0 else Side.DOWN
        assert direction_of(f, last) == expected


@pytest.mark.parametrize("builder", [naive_forecast, drift_forecast])
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


def test_load_external_reports_undecodable_byte_with_line():
    data = EXTERNAL.encode().replace(b"2024-01-10,3,103.5", b"2024-01-10,3,103.5\xc3")
    with pytest.raises(ParseError, match="^line 4: invalid UTF-8 byte 0xc3$"):
        load_external_forecasts(data)


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
