import re

import numpy as np
import pytest

from candlegate.indicators import (
    fit_resistance_line,
    fit_support_line,
    resample_line,
    volatilities,
    TrendLine,
)
from candlegate.prompt_prefix import BITCOIN_DOMAIN, PromptConfig, build_prompt

from conftest import Candle, candle_rows, make_series, make_window, series_from_rows
from oracles import candle_geometry, least_squares_line, percentile_rank


def _series_from_closes(closes, lows=None, highs=None):
    rows = []
    for i, c in enumerate(closes):
        lo = lows[i] if lows is not None else c - 1.0
        hi = highs[i] if highs is not None else c + 1.0
        rows.append((86400 * i, c, hi, lo, c, 1.0))
    return series_from_rows("X", rows, "epoch")


FLAT = TrendLine(slope=0.0, intercept=7.0, kind="support")


def _prompt(w, support=FLAT, resistance=FLAT, samples=6) -> str:
    cfg = PromptConfig("Bitcoin", BITCOIN_DOMAIN, lookback=len(w), horizon=7, line_samples=samples)
    return build_prompt(w, support, resistance, cfg)


def _statistics(w) -> str:
    return re.search(r"minimum value of .*?\.\n", _prompt(w)).group(0)


def _sequences(text: str) -> tuple[list[float], list[float]]:
    """The support and resistance values a prompt prints."""
    support, resistance = re.findall(r"line : \[([^\]]*)\]", text)
    return [float(v) for v in support.split()], [float(v) for v in resistance.split()]


def test_window_stats_basic():
    s = _series_from_closes([1.0, 2.0, 3.0], lows=[0.5] * 3, highs=[3.5] * 3)
    stats = _statistics(s.window(0, 3))
    assert stats == "minimum value of 1 and a maximum value of 3, with an average value of 2.\n"


def test_window_stats_single_candle():
    s = _series_from_closes([5.0])
    stats = _statistics(s.window(0, 1))
    assert stats == "minimum value of 5 and a maximum value of 5, with an average value of 5.\n"


def test_window_stats_btc_demo(btc_series):
    stats = _statistics(btc_series.window(0, len(btc_series)))
    assert stats == "minimum value of 26511.2 and a maximum value of 49011.4, with an average value of 39621.6.\n"


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


def test_sample_line_demo_sequences(btc_series):
    w = btc_series.window(0, len(btc_series))
    support = TrendLine(slope=2373.775, intercept=26511.03, kind="support")
    resistance = TrendLine(slope=2373.775, intercept=38130.86, kind="resistance")
    text = _prompt(w, support, resistance)
    assert "support line : [26511.03 28884.81 31258.58 33632.35 36006.13 38379.9]." in text
    assert "resistance line : [38130.86 40504.64 42878.41 45252.18 47625.96 49999.74]." in text
    # Each printed value is the line at its step, rounded to the cent.
    got_support, got_resistance = _sequences(text)
    steps = np.arange(6)
    assert got_support == pytest.approx(26511.03 + 2373.775 * steps, abs=0.005 + 1e-9)
    assert got_resistance == pytest.approx(38130.86 + 2373.775 * steps, abs=0.005 + 1e-9)


def test_sample_line_flat():
    text = _prompt(make_window(np.random.default_rng(0), 5), samples=3)
    assert _sequences(text) == ([7.0, 7.0, 7.0], [7.0, 7.0, 7.0])
    assert "support line : [7 7 7]." in text


def test_sample_line_is_arithmetic_progression():
    rng = np.random.default_rng(4)
    w = make_window(rng, 10)
    for _ in range(50):
        line = TrendLine(slope=float(rng.normal()), intercept=float(rng.normal(100)), kind="support")
        vals, _ = _sequences(_prompt(w, line, samples=10))
        assert len(vals) == 10
        # Each printed value is within 0.005 of intercept + slope * k.
        assert np.allclose(vals, line.intercept + line.slope * np.arange(10), rtol=0, atol=0.005 + 1e-9)
        assert np.allclose(np.diff(vals), line.slope, rtol=0, atol=0.01 + 1e-9)


def test_sample_line_rejects_zero_steps():
    with pytest.raises(ValueError, match="line_samples must be >= 1"):
        PromptConfig("Bitcoin", BITCOIN_DOMAIN, lookback=110, horizon=7, line_samples=0)
    with pytest.raises(ValueError):
        resample_line(TrendLine(1.0, 0.0, "support"), window_len=110, samples=0)


def test_resample_line_preserves_endpoints():
    line = TrendLine(slope=1.5, intercept=20.0, kind="support")
    resampled = resample_line(line, window_len=110, samples=6)
    assert resampled.intercept == pytest.approx(line.intercept, abs=1e-9)
    assert resampled.intercept + resampled.slope * 5 == pytest.approx(line.intercept + line.slope * 109, abs=1e-9)
    vals, _ = _sequences(_prompt(make_window(np.random.default_rng(1), 110), resampled))
    assert (vals[0], vals[-1]) == (20.0, 183.5)


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
    assert volatilities(s.window(0, 10).closes[None, :])[0] == 0.0


def test_realized_volatility_hand_case():
    s = _series_from_closes([100.0, 110.0, 99.0])
    got = volatilities(s.window(0, 3).closes[None, :])[0]
    assert got == pytest.approx(np.std([0.10, -0.10], ddof=1), rel=1e-12)
    assert got == pytest.approx(0.1414213562, abs=1e-9)


def test_realized_volatility_scale_free():
    rng = np.random.default_rng(7)
    closes = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 30))))
    s1 = _series_from_closes(closes)
    s2 = _series_from_closes([2.0 * c for c in closes])
    v1 = volatilities(s1.window(0, 30).closes[None, :])[0]
    v2 = volatilities(s2.window(0, 30).closes[None, :])[0]
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_realized_volatility_needs_two_candles():
    s = _series_from_closes([100.0])
    with pytest.raises(ValueError):
        volatilities(s.window(0, 1).closes[None, :])[0]
