from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from candlegate.market_data import Series, parse_csv

DATA_DIR = Path(__file__).parent / "data"

BTC_FIXTURE = DATA_DIR / "btc_daily_110.csv"
PLANTED_FIXTURE = DATA_DIR / "planted_bottoming_tail.csv"
BACKTEST_FIXTURE = DATA_DIR / "backtest_demo.csv"


class Candle(NamedTuple):
    """One OHLCV row, in the field order Series.from_rows reads."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float


def make_series(rng: np.random.Generator, n: int, start_price: float = 100.0) -> Series:
    """Random but always-valid OHLCV series for property tests."""
    rets = rng.normal(0.0, 0.015, size=n)
    closes = start_price * np.exp(np.cumsum(rets))
    opens = np.concatenate(([closes[0]], closes[:-1]))
    body_high = np.maximum(opens, closes)
    body_low = np.minimum(opens, closes)
    highs = body_high * (1.0 + rng.uniform(0.0, 0.01, size=n))
    lows = body_low * (1.0 - rng.uniform(0.0, 0.01, size=n))
    volumes = rng.uniform(1.0, 1000.0, size=n)
    timestamps = [1_600_000_000 + 86_400 * i for i in range(n)]
    rows = zip(timestamps, opens.tolist(), highs.tolist(), lows.tolist(), closes.tolist(), volumes.tolist())
    return Series.from_rows("RAND", rows, "epoch")


def candle_rows(series: Series) -> list[Candle]:
    """The series as a list of Candle rows of Python ints and floats."""
    return [Candle(*row) for row in zip(*(column.tolist() for column in series.columns))]


def make_window(rng: np.random.Generator, n: int):
    series = make_series(rng, n)
    return series.window(0, n)


@pytest.fixture(scope="session")
def btc_series() -> Series:
    return parse_csv(BTC_FIXTURE.read_bytes(), symbol="BTC")


@pytest.fixture(scope="session")
def planted_series() -> Series:
    return parse_csv(PLANTED_FIXTURE.read_bytes(), symbol="PLANTED")


@pytest.fixture(scope="session")
def backtest_series() -> Series:
    return parse_csv(BACKTEST_FIXTURE.read_bytes(), symbol="DEMO")
