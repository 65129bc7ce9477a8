from array import array
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from candlegate.market_data import CSV_HEADER, Series, format_timestamp, parse_csv

DATA_DIR = Path(__file__).parent / "data"

BTC_FIXTURE = DATA_DIR / "btc_daily_110.csv"
PLANTED_FIXTURE = DATA_DIR / "planted_bottoming_tail.csv"
BACKTEST_FIXTURE = DATA_DIR / "backtest_demo.csv"


class Candle(NamedTuple):
    """One OHLCV row, in the field order series_from_rows reads."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float


def series_from_rows(symbol: str, rows, timestamp_format: str) -> Series:
    """Series from (timestamp, open, high, low, close, volume) rows."""
    columns = [array("q"), *(array("d") for _ in range(5))]
    for row in rows:
        for column, value in zip(columns, row, strict=True):
            column.append(value)
    return Series(symbol, *columns, timestamp_format)


def serialize_csv(series: Series) -> str:
    """Inverse of parse_csv: LF-terminated CSV that reparses to equal columns."""
    lines = [CSV_HEADER]
    for ts, *values in zip(*(column.tolist() for column in series.columns)):
        lines.append(",".join([format_timestamp(ts, series.timestamp_format), *map(repr, values)]))
    return "\n".join(lines) + "\n"


def forecast_bits(forecast) -> tuple[bytes, ...]:
    """A Forecast's path and interval bounds as bytes, for bit-for-bit comparison."""
    return tuple(np.array(c).tobytes() for c in (forecast.path, forecast.lower, forecast.upper))


def assert_trace_is_its_row(verdict, columns, i: int) -> None:
    """Each trace entry holds row i of its predicate's column triple, bit for bit."""
    assert len(verdict.trace) == len(columns)
    for entry, (measured, threshold, passed) in zip(verdict.trace, columns):
        got = np.array([entry.measured, entry.threshold]).tobytes()
        assert got == np.array([measured[i], threshold[i]]).tobytes(), (entry, i)
        assert entry.passed is bool(passed[i])


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
    return series_from_rows("RAND", rows, "epoch")


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
