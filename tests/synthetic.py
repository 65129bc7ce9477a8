"""Constructed series for end-to-end gate checks.

The closes follow a seeded random walk; each forecast origin's candle is then
shaped so that its lower-tail fraction flags whether the drift forecaster's
directional call at that origin turns out correct.  A single-predicate rule
with lookback 1 reads the flag back out, giving the gate one feature that
perfectly predicts forecaster correctness while the closes stay untouched.
"""

from __future__ import annotations

import numpy as np

from candlegate.forecaster import drift_forecast, is_up
from candlegate.market_data import Series
from candlegate.rule_engine import TAIL_MIN_FRACTION, Predicate, Rule

from conftest import series_from_rows


def regime_flag_rule() -> Rule:
    return Rule(
        name="regime_flag",
        predicates=(
            Predicate("long_lower_tail", TAIL_MIN_FRACTION, lookback=1, threshold=0.5),
        ),
    )


def make_regime_series(
    n: int, lookback: int, horizon: int, seed: int = 0
) -> Series:
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=n)))

    # Closes fully determine the drift forecasts and realized directions, so
    # correctness can be computed before the candles are shaped.
    plain = series_from_rows(
        "REGIME",
        (
            (86_400 * i, float(c), float(c) * 1.001, float(c) * 0.999, float(c), 100.0)
            for i, c in enumerate(closes)
        ),
        "epoch",
    )
    correct = {}
    for t in range(lookback - 1, n - horizon):
        w = plain.window(t - lookback + 1, t + 1)
        forecast = drift_forecast(w, horizon)
        correct[t] = is_up(forecast.path[-1], float(closes[t])) == is_up(closes[t + horizon], closes[t])

    rows = []
    for i, c in enumerate(closes):
        c = float(c)
        if correct.get(i, False):
            low, high = c - 0.008 * c, c + 0.002 * c   # tail fraction 0.8
        else:
            low, high = c - 0.001 * c, c + 0.009 * c   # tail fraction 0.1
        rows.append((86_400 * i, c, high, low, c, 100.0))
    return series_from_rows("REGIME", rows, "epoch")
