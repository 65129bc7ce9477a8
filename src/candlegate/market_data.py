"""OHLCV market data: parsing, the columnar series and its windows.

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
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import chain

import numpy as np

CSV_HEADER = "timestamp,open,high,low,close,volume"

TS_ISO = "iso"
TS_EPOCH = "epoch"

_INT64_RANGE = range(-(2**63), 2**63)


class ParseError(ValueError):
    """Malformed CSV input; ``line`` is the 1-based file line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """A candle or series invariant does not hold; ``index`` is the 0-based candle.

    ``reason`` is the message without the candle prefix.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        self.reason = message
        if index is not None:
            message = f"candle {index}: {message}"
        super().__init__(message)


_COLUMNS = ("timestamps", "opens", "highs", "lows", "closes", "volumes")


def _first_violation(ts, o, h, l, c, v) -> tuple[int, str] | None:
    """(index, message) of the earliest candle that breaks an invariant, or None.

    This is the one statement of the candle invariants.  At one candle the
    checks are reported in the order listed.
    """
    prices = np.stack((o, h, l, c))
    checks = (
        ("all fields must be finite", ~np.isfinite(np.vstack((prices, v))).all(axis=0)),
        ("all prices must be > 0", (prices <= 0).any(axis=0)),
        ("volume must be >= 0", v < 0),
        ("low must be <= high", l > h),
        ("low must be <= min(open, close)", l > np.minimum(o, c)),
        ("high must be >= max(open, close)", h < np.maximum(o, c)),
        ("timestamps must be strictly increasing ({} after {})",
         np.concatenate(([False], ts[1:] <= ts[:-1]))),
    )
    faults = np.stack([mask for _, mask in checks])
    faulty = faults.any(axis=0)
    if not faulty.any():
        return None
    i = int(faulty.argmax())
    message = checks[int(faults[:, i].argmax())][0]
    return i, message.format(int(ts[i]), int(ts[i - 1]))


@dataclass(frozen=True, eq=False)
class Series:
    """Immutable, time-ordered OHLCV series for one symbol, held as read-only columns.

    Construction copies the columns and checks every invariant, raising
    ValidationError at the earliest faulty candle, so every Series is valid.
    Series compare by identity.
    """

    symbol: str
    timestamps: np.ndarray
    opens: np.ndarray
    highs: np.ndarray
    lows: np.ndarray
    closes: np.ndarray
    volumes: np.ndarray
    timestamp_format: str = TS_ISO

    def __post_init__(self):
        for name in _COLUMNS:
            dtype = np.int64 if name == "timestamps" else np.float64
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = sorted({column.shape for column in self.columns})
        if len(shapes) != 1 or len(shapes[0]) != 1:
            raise ValidationError(f"columns must be 1-d and of equal length, got shapes {shapes}")
        if len(self) == 0:
            raise ValidationError("series is empty")
        violation = _first_violation(*self.columns)
        if violation is not None:
            raise ValidationError(violation[1], index=violation[0])

    @classmethod
    def from_rows(cls, symbol: str, rows, timestamp_format: str = TS_ISO) -> "Series":
        """Series from (timestamp, open, high, low, close, volume) rows.

        If iterating ``rows`` raises ValueError, the rows read so far are checked
        first, so an invariant violation at an earlier row is reported instead.
        """
        columns = [array("q"), *(array("d") for _ in range(5))]
        try:
            for ts, o, h, l, c, v in rows:
                for column, value in zip(columns, (ts, o, h, l, c, v)):
                    column.append(value)
        except ValueError:
            if len(columns[0]):
                cls(symbol, *columns, timestamp_format)
            raise
        return cls(symbol, *columns, timestamp_format)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.timestamps)

    def window(self, start: int, end: int) -> "Window":
        return Window(self, start, end)


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
    def highs(self) -> np.ndarray:
        return self.series.highs[self.start : self.end]

    @property
    def lows(self) -> np.ndarray:
        return self.series.lows[self.start : self.end]

    @property
    def closes(self) -> np.ndarray:
        return self.series.closes[self.start : self.end]


def _parse_timestamp(text: str) -> tuple[int, str]:
    """Parse an ISO date or integer epoch seconds; return (epoch, flavour)."""
    text = text.strip()
    if not text:
        raise ValueError("empty timestamp")
    try:
        epoch = int(text)
    except ValueError:
        pass
    else:
        if epoch not in _INT64_RANGE:
            raise ValueError(f"timestamp {text!r} is out of the 64-bit range")
        return epoch, TS_EPOCH
    try:
        day = date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"timestamp {text!r} is neither epoch seconds nor an ISO date")
    return calendar.timegm(day.timetuple()), TS_ISO


def format_timestamp(timestamp: int, flavour: str) -> str:
    if flavour == TS_EPOCH:
        return str(int(timestamp))
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date().isoformat()


def _data_rows(records, flavour: str, lines: array):
    """Yield one (timestamp, open, high, low, close, volume) row per CSV record.

    Each row's line number is appended to ``lines``; a malformed row raises
    ParseError with its line number.
    """
    for lineno, row in records:
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line=lineno)
        try:
            ts, row_flavour = _parse_timestamp(row[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if row_flavour != flavour:
            raise ParseError(
                f"inconsistent timestamp format ({row_flavour!r} after {flavour!r})",
                line=lineno,
            )
        try:
            o, h, l, c, v = (float(f) for f in row[1:])
        except ValueError:
            raise ParseError(f"non-numeric field in {row[1:]!r}", line=lineno) from None
        lines.append(lineno)
        yield ts, o, h, l, c, v


def _decode(text: str | bytes) -> str:
    """Text of str or UTF-8 input; an undecodable byte is a ParseError on its line."""
    try:
        return text if isinstance(text, str) else text.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = text.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{text[exc.start]:02x}", line=line) from None


def parse_csv(text: str | bytes, symbol: str = "") -> Series:
    """Parse OHLCV CSV text into a Series, streaming its rows into columns.

    A malformed row or a violated candle or ordering invariant raises
    ParseError with the line number of the earliest faulty row.
    """
    text = _decode(text).lstrip("﻿")
    if not text.strip():
        raise ParseError("empty input: no header or data rows")

    reader = csv.reader(io.StringIO(text))
    records = ((lineno, row) for lineno, row in enumerate(reader, start=1) if row)
    header_line, header_row = next(records)
    header = ",".join(f.strip() for f in header_row)
    if header != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {header!r}", line=header_line)
    first = next(records, None)
    if first is None:
        raise ParseError("empty input: header but no data rows")

    # The first row fixes the timestamp flavour; if its timestamp is
    # malformed, _data_rows rejects that row before the flavour matters.
    try:
        _, flavour = _parse_timestamp(first[1][0])
    except ValueError:
        flavour = TS_ISO
    lines = array("q")
    rows = _data_rows(chain((first,), records), flavour, lines)
    try:
        return Series.from_rows(symbol, rows, flavour)
    except ValidationError as exc:
        raise ParseError(exc.reason, line=lines[exc.index]) from None


def serialize_csv(series: Series) -> str:
    """Inverse of parse_csv: emits LF-terminated CSV that reparses to equal columns."""
    lines = [CSV_HEADER]
    for ts, *values in zip(*(column.tolist() for column in series.columns)):
        lines.append(",".join([format_timestamp(ts, series.timestamp_format), *map(repr, values)]))
    return "\n".join(lines) + "\n"
