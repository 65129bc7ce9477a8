"""Seeded input generators: OHLCV market CSV and external-forecast CSV.

Everything here is the benchmark's own code and calls nothing in candlegate,
so the program under test only ever sees the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RULE_LOOKBACK = 90
FIRST_DAY = date(1971, 1, 1).toordinal()


@dataclass(frozen=True)
class Market:
    dates: list[str]
    opens: np.ndarray
    highs: np.ndarray
    lows: np.ndarray
    closes: np.ndarray
    volumes: np.ndarray

    def __len__(self) -> int:
        return len(self.closes)

    def slice(self, start: int, end: int) -> "Market":
        return Market(
            self.dates[start:end],
            self.opens[start:end],
            self.highs[start:end],
            self.lows[start:end],
            self.closes[start:end],
            self.volumes[start:end],
        )

    def splice(self, other: "Market", start: int) -> "Market":
        """This market's candles before `start`, then `other`'s, on this market's dates."""
        join = lambda a, b: np.concatenate((a[:start], b[start:]))
        return Market(
            self.dates,
            join(self.opens, other.opens),
            join(self.highs, other.highs),
            join(self.lows, other.lows),
            join(self.closes, other.closes),
            join(self.volumes, other.volumes),
        )

    def candle_tuples(self, start: int, end: int) -> list[tuple]:
        """(open, high, low, close, volume) tuples in the form tests/oracles.py takes."""
        return list(
            zip(
                self.opens[start:end].tolist(),
                self.highs[start:end].tolist(),
                self.lows[start:end].tolist(),
                self.closes[start:end].tolist(),
                self.volumes[start:end].tolist(),
            )
        )


def make_market(seed: int, n: int) -> Market:
    """Mean-reverting log-price walk with planted bottoming-tail candles.

    The log price is an AR(1) process, so a 100k-candle series stays within a
    realistic price band.  Near window lows, about half of the candles are
    reshaped into high-volume long-lower-wick reversals, so the bottoming-tail
    rule passes on a small share of origins instead of almost never.
    """
    rng = np.random.default_rng(seed)
    shocks = rng.normal(0.0, 0.02, size=n).tolist()
    log_price = np.empty(n)
    level = 0.0
    for i, shock in enumerate(shocks):
        level = 0.998 * level + shock
        log_price[i] = level
    closes = 20_000.0 * np.exp(log_price)
    opens = np.concatenate(([closes[0]], closes[:-1])) * (1.0 + rng.normal(0.0, 0.002, size=n))
    highs = np.maximum(opens, closes) * (1.0 + rng.uniform(0.0, 0.015, size=n))
    lows = np.minimum(opens, closes) * (1.0 - rng.uniform(0.0, 0.015, size=n))
    volumes = rng.lognormal(10.0, 0.5, size=n)

    prior = RULE_LOOKBACK - 1
    prior_low = sliding_window_view(lows, prior)[:-1].min(axis=1)
    near_low = np.flatnonzero(closes[prior:] <= 1.03 * prior_low) + prior
    coins = rng.random(size=near_low.size)
    for i, coin in zip(near_low.tolist(), coins.tolist()):
        if coin >= 0.5:
            continue
        low = min(float(lows[i]), float(lows[i - prior : i].min())) * 0.995
        high = float(closes[i]) * 1.001
        lows[i] = low
        highs[i] = high
        opens[i] = low + 0.7 * (high - low)
        volumes[i] = 1.5 * float(volumes[i - prior : i].max())

    dates = [date.fromordinal(FIRST_DAY + i).isoformat() for i in range(n)]
    return Market(dates, opens, highs, lows, closes, volumes)


def market_csv(market: Market) -> bytes:
    lines = ["timestamp,open,high,low,close,volume"]
    rows = zip(
        market.dates,
        market.opens.tolist(),
        market.highs.tolist(),
        market.lows.tolist(),
        market.closes.tolist(),
        market.volumes.tolist(),
    )
    lines.extend(f"{d},{o!r},{h!r},{l!r},{c!r},{v!r}" for d, o, h, l, c, v in rows)
    return ("\n".join(lines) + "\n").encode()


def make_external_forecasts(
    seed: int, market: Market, origins: range, horizon: int
) -> dict[int, tuple[list[float], list[float], list[float]]]:
    """A stand-in for a text-conditioned model: a noisy, partly skilled path.

    The endpoint move is 0.25 x the realized move plus noise of the same size,
    so the directional call is right a little more often than a coin, which
    leaves the gate something to learn and scores on both sides of 0.5.  Intervals widen with the
    square root of the step.
    """
    rng = np.random.default_rng(seed + 1_000_003)
    closes = market.closes
    idx = np.asarray(origins, dtype=np.int64)
    realized = closes[idx + horizon] / closes[idx] - 1.0
    move = 0.25 * realized + rng.normal(0.0, float(realized.std()), size=idx.size)
    out = {}
    steps = np.arange(1, horizon + 1, dtype=np.float64)
    for origin, last, m in zip(idx.tolist(), closes[idx].tolist(), move.tolist()):
        path = last * (1.0 + m * steps / horizon)
        width = last * 0.02 * np.sqrt(steps)
        out[origin] = (path.tolist(), (path - width).tolist(), (path + width).tolist())
    return out


def external_csv(market: Market, forecasts: dict) -> bytes:
    lines = ["origin_timestamp,step,predicted_close,lower,upper"]
    for origin, (path, lower, upper) in forecasts.items():
        label = market.dates[origin]
        lines.extend(
            f"{label},{k + 1},{p!r},{lo!r},{hi!r}"
            for k, (p, lo, hi) in enumerate(zip(path, lower, upper))
        )
    return ("\n".join(lines) + "\n").encode()
