import numpy as np
import pytest

from candlegate.indicators import (
    fit_resistance_line,
    fit_support_line,
    realized_volatility,
    resample_line,
    sample_line,
    window_stats,
    TrendLine,
)
from candlegate.market_data import Series

from conftest import Candle, candle_rows, make_series, make_window
from oracles import candle_geometry, least_squares_line, percentile_rank


def _series_from_closes(closes, lows=None, highs=None):
    rows = []
    for i, c in enumerate(closes):
        lo = lows[i] if lows is not None else c - 1.0
        hi = highs[i] if highs is not None else c + 1.0
        rows.append((86400 * i, c, hi, lo, c, 1.0))
    return Series.from_rows("X", rows, "epoch")


def test_window_stats_basic():
    s = _series_from_closes([1.0, 2.0, 3.0], lows=[0.5] * 3, highs=[3.5] * 3)
    stats = window_stats(s.window(0, 3))
    assert (stats.min, stats.max, stats.mean) == (1.0, 3.0, 2.0)


def test_window_stats_single_candle():
    s = _series_from_closes([5.0])
    stats = window_stats(s.window(0, 1))
    assert stats.min == stats.max == stats.mean == 5.0


def test_window_stats_btc_demo(btc_series):
    stats = window_stats(btc_series.window(0, len(btc_series)))
    assert stats.min == pytest.approx(26511.2, abs=1e-9)
    assert stats.max == pytest.approx(49011.4, abs=1e-9)
    assert stats.mean == pytest.approx(39621.6, abs=0.05)


def test_support_line_exact_fit():
    lows = [2.0 * i + 10.0 for i in range(20)]
    closes = [l + 1.0 for l in lows]
    s = _series_from_closes(closes, lows=lows, highs=[c + 1 for c in closes])
    line = fit_support_line(s.window(0, 20))
    assert line.slope == pytest.approx(2.0, abs=1e-9)
    assert line.intercept == pytest.approx(10.0, abs=1e-9)
    assert line.kind == "support"


def test_support_line_anchors_at_dip():
    # Flat lows with a centered dip: regression slope is zero, envelope sits on
    # the dip.
    lows = [100.0] * 21
    lows[10] = 95.0
    closes = [101.0] * 21
    s = _series_from_closes(closes, lows=lows, highs=[102.0] * 21)
    line = fit_support_line(s.window(0, 21))
    assert line.slope == pytest.approx(0.0, abs=1e-9)
    assert line.intercept == pytest.approx(95.0, abs=1e-9)


def test_fit_requires_two_candles():
    s = _series_from_closes([5.0])
    with pytest.raises(ValueError):
        fit_support_line(s.window(0, 1))
    with pytest.raises(ValueError):
        fit_resistance_line(s.window(0, 1))


def test_envelope_property_random_windows():
    rng = np.random.default_rng(2)
    for _ in range(200):
        w = make_window(rng, int(rng.integers(2, 60)))
        idx = np.arange(len(w))
        support = fit_support_line(w)
        resistance = fit_resistance_line(w)
        sup_vals = support.intercept + support.slope * idx
        res_vals = resistance.intercept + resistance.slope * idx
        assert np.all(w.lows >= sup_vals - 1e-9)
        assert np.all(w.highs <= res_vals + 1e-9)
        assert np.min(w.lows - sup_vals) <= 1e-9       # support touches
        assert np.min(res_vals - w.highs) <= 1e-9      # resistance touches


def test_fit_slope_matches_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = make_window(rng, int(rng.integers(2, 40)))
        line = fit_support_line(w)
        slope, _ = least_squares_line(list(range(len(w))), [float(v) for v in w.lows])
        assert line.slope == pytest.approx(slope, rel=1e-9, abs=1e-12)


def test_sample_line_demo_sequences():
    support = TrendLine(slope=2373.775, intercept=26511.03, kind="support")
    got = sample_line(support, 6)
    expected = [26511.03, 28884.81, 31258.58, 33632.36, 36006.13, 38379.90]
    assert got == pytest.approx(expected, abs=0.01)

    resistance = TrendLine(slope=2373.775, intercept=38130.86, kind="resistance")
    got = sample_line(resistance, 6)
    expected = [38130.86, 40504.64, 42878.41, 45252.18, 47625.96, 49999.73]
    assert got == pytest.approx(expected, abs=0.01)


def test_sample_line_flat():
    line = TrendLine(slope=0.0, intercept=7.0, kind="support")
    assert sample_line(line, 3) == [7.0, 7.0, 7.0]


def test_sample_line_is_arithmetic_progression():
    rng = np.random.default_rng(4)
    for _ in range(50):
        line = TrendLine(slope=float(rng.normal()), intercept=float(rng.normal(100)), kind="support")
        vals = sample_line(line, 10)
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0], atol=1e-9)


def test_sample_line_rejects_zero_steps():
    with pytest.raises(ValueError):
        sample_line(TrendLine(1.0, 0.0, "support"), 0)


def test_resample_line_preserves_endpoints():
    line = TrendLine(slope=1.5, intercept=20.0, kind="support")
    resampled = resample_line(line, window_len=110, samples=6)
    vals = sample_line(resampled, 6)
    assert vals[0] == pytest.approx(line.intercept, abs=1e-9)
    assert vals[-1] == pytest.approx(line.intercept + line.slope * 109, abs=1e-9)


def test_percentile_rank_cases():
    values = list(range(1, 11))
    assert percentile_rank(values, 10) == 1.0
    assert percentile_rank(values, 9) == pytest.approx(0.9)
    assert percentile_rank(values, 9) >= 1.0 - 0.10   # "in top 10%"
    assert percentile_rank([5.0, 5.0, 5.0], 5.0) == 1.0
    with pytest.raises(ValueError):
        percentile_rank([], 1.0)


def test_percentile_rank_monotone():
    rng = np.random.default_rng(5)
    values = rng.normal(size=50)
    xs = np.sort(rng.normal(size=20))
    ranks = [percentile_rank(values, x) for x in xs]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert percentile_rank(values, values.max()) == 1.0


def test_candle_geometry_hand_case():
    geo = candle_geometry(Candle(0, 100.0, 104.0, 90.0, 103.0, 1.0))
    assert geo.range == 14.0
    assert geo.body == 3.0
    assert geo.lower_tail == 10.0
    assert geo.upper_tail == 1.0


def test_candle_geometry_doji():
    geo = candle_geometry(Candle(0, 100.0, 100.0, 100.0, 100.0, 1.0))
    assert geo.range == geo.body == geo.lower_tail == geo.upper_tail == 0.0


def test_candle_geometry_decomposition():
    rng = np.random.default_rng(6)
    for _ in range(500):
        geo = candle_geometry(candle_rows(make_series(rng, 1))[0])
        total = geo.body + geo.lower_tail + geo.upper_tail
        assert total == pytest.approx(geo.range, rel=1e-9, abs=1e-12)
        assert min(geo.range, geo.body, geo.lower_tail, geo.upper_tail) >= 0.0


def test_realized_volatility_constant_is_zero():
    s = _series_from_closes([100.0] * 10)
    assert realized_volatility(s.window(0, 10)) == 0.0


def test_realized_volatility_hand_case():
    s = _series_from_closes([100.0, 110.0, 99.0])
    got = realized_volatility(s.window(0, 3))
    assert got == pytest.approx(np.std([0.10, -0.10], ddof=1), rel=1e-12)
    assert got == pytest.approx(0.1414213562, abs=1e-9)


def test_realized_volatility_scale_free():
    rng = np.random.default_rng(7)
    closes = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 30))))
    s1 = _series_from_closes(closes)
    s2 = _series_from_closes([2.0 * c for c in closes])
    v1 = realized_volatility(s1.window(0, 30))
    v2 = realized_volatility(s2.window(0, 30))
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_realized_volatility_needs_two_candles():
    s = _series_from_closes([100.0])
    with pytest.raises(ValueError):
        realized_volatility(s.window(0, 1))
