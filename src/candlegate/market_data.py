"""OHLCV market data: parsing, validation, windowing, and returns.

The CSV contract is a header-first file with the exact header
``timestamp,open,high,low,close,volume``.  Timestamps are accepted either
as ISO-8601 dates (``2025-07-08``) or integer epoch seconds; internally
everything is stored as epoch seconds, and the input flavour is recorded
on the series so a serialize round-trip is bit-exact.
"""

from __future__ import annotations

import calendar
import csv
import io
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import cached_property

import numpy as np

CSV_HEADER = "timestamp,open,high,low,close,volume"

TS_ISO = "iso"
TS_EPOCH = "epoch"


class ParseError(ValueError):
    """Malformed CSV input; ``line`` is the 1-based file line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """A candle or series invariant does not hold; ``index`` is the 0-based candle."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        if index is not None:
            message = f"candle {index}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Candle:
    """One OHLCV bar. Timestamp is epoch seconds (UTC midnight for date input)."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float

    def invariant_violation(self) -> str | None:
        """Return a description of the first violated invariant, or None."""
        if not all(
            np.isfinite(v) for v in (self.open, self.high, self.low, self.close, self.volume)
        ):
            return "all fields must be finite"
        if self.open <= 0 or self.high <= 0 or self.low <= 0 or self.close <= 0:
            return "all prices must be > 0"
        if self.volume < 0:
            return "volume must be >= 0"
        if self.low > self.high:
            return "low must be <= high"
        if self.low > min(self.open, self.close):
            return "low must be <= min(open, close)"
        if self.high < max(self.open, self.close):
            return "high must be >= max(open, close)"
        return None


@dataclass(frozen=True)
class Series:
    """Immutable, time-ordered OHLCV series for one symbol."""

    symbol: str
    candles: tuple[Candle, ...]
    timestamp_format: str = TS_ISO

    def __len__(self) -> int:
        return len(self.candles)

    @cached_property
    def timestamps(self) -> np.ndarray:
        return np.array([c.timestamp for c in self.candles], dtype=np.int64)

    @cached_property
    def opens(self) -> np.ndarray:
        return np.array([c.open for c in self.candles], dtype=np.float64)

    @cached_property
    def highs(self) -> np.ndarray:
        return np.array([c.high for c in self.candles], dtype=np.float64)

    @cached_property
    def lows(self) -> np.ndarray:
        return np.array([c.low for c in self.candles], dtype=np.float64)

    @cached_property
    def closes(self) -> np.ndarray:
        return np.array([c.close for c in self.candles], dtype=np.float64)

    @cached_property
    def volumes(self) -> np.ndarray:
        return np.array([c.volume for c in self.candles], dtype=np.float64)

    def window(self, start: int, end: int) -> "Window":
        return Window(self, start, end)

    def index_of_timestamp(self, timestamp: int) -> int | None:
        """Index of the candle with this exact timestamp, or None."""
        pos = int(np.searchsorted(self.timestamps, timestamp))
        if pos < len(self) and self.candles[pos].timestamp == timestamp:
            return pos
        return None


@dataclass(frozen=True)
class Window:
    """Half-open view [start, end) into a series. Never empty."""

    series: Series
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end <= len(self.series)):
            raise ValueError(
                f"window [{self.start}, {self.end}) out of range for series of "
                f"length {len(self.series)}"
            )

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def candles(self) -> tuple[Candle, ...]:
        return self.series.candles[self.start : self.end]

    @property
    def last(self) -> Candle:
        return self.series.candles[self.end - 1]

    @property
    def opens(self) -> np.ndarray:
        return self.series.opens[self.start : self.end]

    @property
    def highs(self) -> np.ndarray:
        return self.series.highs[self.start : self.end]

    @property
    def lows(self) -> np.ndarray:
        return self.series.lows[self.start : self.end]

    @property
    def closes(self) -> np.ndarray:
        return self.series.closes[self.start : self.end]

    @property
    def volumes(self) -> np.ndarray:
        return self.series.volumes[self.start : self.end]


def _parse_timestamp(text: str) -> tuple[int, str]:
    """Parse an ISO date or integer epoch seconds; return (epoch, flavour)."""
    text = text.strip()
    if not text:
        raise ValueError("empty timestamp")
    try:
        return int(text), TS_EPOCH
    except ValueError:
        pass
    try:
        day = date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"timestamp {text!r} is neither epoch seconds nor an ISO date")
    return calendar.timegm(day.timetuple()), TS_ISO


def format_timestamp(timestamp: int, flavour: str) -> str:
    if flavour == TS_EPOCH:
        return str(int(timestamp))
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date().isoformat()


def parse_csv(text: str | bytes, symbol: str = "") -> Series:
    """Parse OHLCV CSV text into a validated Series.

    Every candle and ordering invariant is checked once, as its row is read,
    and a violation raises ParseError with the line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.lstrip("﻿")
    if not text.strip():
        raise ParseError("empty input: no header or data rows")

    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    header = ",".join(f.strip() for f in rows[0][1])
    if header != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {header!r}", line=rows[0][0])
    data_rows = rows[1:]
    if not data_rows:
        raise ParseError("empty input: header but no data rows")

    candles = []
    flavour = None
    for lineno, row in data_rows:
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=lineno)
        try:
            ts, row_flavour = _parse_timestamp(row[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if flavour is None:
            flavour = row_flavour
        elif flavour != row_flavour:
            raise ParseError(
                f"inconsistent timestamp format ({row_flavour!r} after {flavour!r})",
                line=lineno,
            )
        try:
            o, h, l, c, v = (float(f) for f in row[1:])
        except ValueError:
            raise ParseError(f"non-numeric field in {row[1:]!r}", line=lineno) from None
        candle = Candle(ts, o, h, l, c, v)
        violation = candle.invariant_violation()
        if violation is not None:
            raise ParseError(violation, line=lineno)
        if candles and ts <= candles[-1].timestamp:
            raise ParseError(
                f"timestamps must be strictly increasing "
                f"({ts} after {candles[-1].timestamp})",
                line=lineno,
            )
        candles.append(candle)

    return Series(symbol=symbol, candles=tuple(candles), timestamp_format=flavour)


def validate(series: Series) -> Series:
    """Check all candle invariants and strict timestamp ordering; identity on success."""
    if len(series) == 0:
        raise ValidationError("series is empty")
    prev_ts = None
    for i, candle in enumerate(series.candles):
        violation = candle.invariant_violation()
        if violation is not None:
            raise ValidationError(violation, index=i)
        if prev_ts is not None and candle.timestamp <= prev_ts:
            raise ValidationError(
                f"timestamps must be strictly increasing "
                f"({candle.timestamp} after {prev_ts})",
                index=i,
            )
        prev_ts = candle.timestamp
    return series


def serialize_csv(series: Series) -> str:
    """Inverse of parse_csv: emits LF-terminated CSV that reparses to an equal series."""
    lines = [CSV_HEADER]
    for c in series.candles:
        ts = format_timestamp(c.timestamp, series.timestamp_format)
        lines.append(f"{ts},{c.open!r},{c.high!r},{c.low!r},{c.close!r},{c.volume!r}")
    return "\n".join(lines) + "\n"


def pct_return(series: Series, i: int, j: int) -> float:
    """Fractional close-to-close return from index i to j (i < j)."""
    n = len(series)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) out of range for length {n}")
    if i >= j:
        raise ValueError(f"need i < j, got i={i}, j={j}")
    start = series.candles[i].close
    return (series.candles[j].close - start) / start
