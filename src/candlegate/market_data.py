"""OHLCV market data: parsing, the columnar series and its windows.

The CSV contract is a header-first file with the exact header
``timestamp,open,high,low,close,volume``.  Timestamps are accepted either
as ISO-8601 dates (``2025-07-08``) or integer epoch seconds; internally
everything is stored as epoch seconds, and the input flavour is recorded
on the series so a serialize round-trip is bit-exact.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import chain, islice

import numpy as np

CSV_HEADER = "timestamp,open,high,low,close,volume"

TS_ISO = "iso"
TS_EPOCH = "epoch"

_INT64_RANGE = range(-(2**63), 2**63)
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_ISO_DAYS = re.compile(f"(?:{_ISO_DAY.pattern}\n)*")
_FIRST_DAY = np.datetime64("0001-01-01")
_BLANK = re.compile(r"\ufeff*\s*")

# Rows per block: bounds the arrays a kernel or the CSV reader holds at once.  At 256
# a (BLOCK, 110) float64 temporary is 225 KB, which fits in L2 and is reused by the
# allocator; at 1024 (~900 KB) its pages were returned and faulted in again per block.
BLOCK = 256


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
        """Series from (timestamp, open, high, low, close, volume) rows."""
        columns = [array("q"), *(array("d") for _ in range(5))]
        for ts, o, h, l, c, v in rows:
            for column, value in zip(columns, (ts, o, h, l, c, v)):
                column.append(value)
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
    """Parse an ISO date or integer epoch seconds; return (epoch, flavour).

    An integer reading comes first, so ``20250708`` is epoch seconds; a plain
    ``YYYY-MM-DD`` label can never be one and goes straight to the date.
    """
    if not _ISO_DAY.fullmatch(text):
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
    return (day.toordinal() - EPOCH_ORDINAL) * 86_400, TS_ISO


def format_timestamp(timestamp: int, flavour: str) -> str:
    if flavour == TS_EPOCH:
        return str(int(timestamp))
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date().isoformat()


def _timestamps(labels: list[str]) -> tuple[array, set[str]]:
    """Epoch seconds of the labels and the set of their flavours.

    A block of plain ``YYYY-MM-DD`` labels (their joined length rules out a
    newline inside one) is converted as one vector.  Any other block, or one in
    which NumPy rejects a date or reads one before year 1, has each distinct
    label parsed once; a malformed one raises ValueError.
    """
    joined = "\n".join(labels) + "\n"
    if len(joined) == 11 * len(labels) and _ISO_DAYS.fullmatch(joined):
        try:
            days = np.array(labels, dtype="datetime64[D]")
            if days.min() >= _FIRST_DAY:
                return array("q", (days.astype(np.int64) * 86_400).tobytes()), {TS_ISO}
        except ValueError:
            pass
    parsed = {label: _parse_timestamp(label) for label in set(labels)}
    epochs = array("q", [parsed[label][0] for label in labels])
    return epochs, {flavour for _, flavour in parsed.values()}


def _decode(text: str | bytes) -> str:
    """Text of str or UTF-8 input; an undecodable byte is a ParseError on its line."""
    try:
        return text if isinstance(text, str) else text.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = text.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{text[exc.start]:02x}", line=line) from None


def _read_csv(data: str | bytes):
    """``(header, blocks)`` of CSV input that ``_decode`` accepts.

    Bytes are decoded as they are read, so no copy of the whole text is made.
    Leading byte order marks are dropped.  ``header`` is ``(line, cells)`` of
    the first non-blank record, or None if there is none; ``blocks`` yields
    ``(lines, rows)`` for up to BLOCK further records at a time, without the
    blank ones.  Line numbers count records from 1, blank ones included.
    """
    if isinstance(data, str):
        stream = io.StringIO(data)
    else:
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    first = stream.readline().lstrip("\ufeff")
    reader = csv.reader(chain((first,) if first else (), stream))
    with _csv_errors(reader):
        for line, cells in enumerate(reader, start=1):
            if cells:
                return (line, cells), _blocks(reader, line + 1)
    return None, iter(())


def _blocks(reader, line: int):
    with _csv_errors(reader):
        while block := list(islice(reader, BLOCK)):
            lines = range(line, line + len(block))
            line += len(block)
            if not all(block):
                lines = [n for n, cells in zip(lines, block) if cells]
                block = [cells for cells in block if cells]
            if block:
                yield lines, block


@contextmanager
def _csv_errors(reader):
    """A record the csv module cannot split is a ParseError on the line it reached."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _data_record(data: str | bytes, row: int) -> tuple[int, list[str]]:
    """(line, cells) of the 0-based data row, read again from the input."""
    for lines, rows in _read_csv(data)[1]:
        if row < len(rows):
            return lines[row], rows[row]
        row -= len(rows)
    raise IndexError(row)


def _read_row(row: list[str], flavour: str) -> tuple[int, list[float]]:
    """(timestamp, [open, high, low, close, volume]) of one data row; ValueError names its fault."""
    if len(row) != 6:
        raise ValueError(f"expected 6 fields, got {len(row)}")
    ts, row_flavour = _parse_timestamp(row[0])
    if row_flavour != flavour:
        raise ValueError(f"inconsistent timestamp format ({row_flavour!r} after {flavour!r})")
    try:
        return ts, [float(f) for f in row[1:]]
    except ValueError:
        raise ValueError(f"non-numeric field in {row[1:]!r}") from None


def _read_block(rows: list[list[str]], flavour: str) -> tuple[array, array] | None:
    """Timestamps and row-major values of a block of data rows, or None if a row is faulty."""
    if set(map(len, rows)) != {6}:
        return None
    cells = list(chain.from_iterable(rows))
    try:
        epochs, flavours = _timestamps(cells[::6])
        del cells[::6]
        values = array("d", map(float, cells))
    except ValueError:
        return None
    return (epochs, values) if flavours == {flavour} else None


def _series(data, symbol: str, timestamps: array, values: array, flavour: str) -> Series:
    """The Series of parsed columns; a violated invariant is a ParseError on its row's line."""
    try:
        return Series(symbol, timestamps, *np.frombuffer(values).reshape(-1, 5).T, flavour)
    except ValidationError as exc:
        raise ParseError(exc.reason, line=_data_record(data, exc.index)[0]) from None


def parse_csv(text: str | bytes, symbol: str = "") -> Series:
    """Parse OHLCV CSV text into a Series, reading BLOCK rows at a time into columns.

    A malformed row or a violated candle or ordering invariant raises
    ParseError with the line number of the earliest faulty row.
    """
    if _BLANK.fullmatch(_decode(text)):
        raise ParseError("empty input: no header or data rows")
    header, blocks = _read_csv(text)
    header_line, header_row = header
    names = ",".join(f.strip() for f in header_row)
    if names != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {names!r}", line=header_line)

    timestamps, values = array("q"), array("d")
    flavour = None
    for lines, rows in blocks:
        if flavour is None:
            # The first row fixes the timestamp flavour; if its timestamp is
            # malformed, that row is rejected before the flavour matters.
            try:
                _, flavour = _parse_timestamp(rows[0][0])
            except ValueError:
                flavour = TS_ISO
        block = _read_block(rows, flavour)
        if block is None:
            # Read the block again row by row to name the first faulty row;
            # a violated invariant at an earlier row is reported instead.
            for line, row in zip(lines, rows):
                try:
                    ts, fields = _read_row(row, flavour)
                except ValueError as exc:
                    if timestamps:
                        _series(text, symbol, timestamps, values, flavour)
                    raise ParseError(str(exc), line=line) from None
                timestamps.append(ts)
                values.extend(fields)
        else:
            timestamps.extend(block[0])
            values.extend(block[1])
    if flavour is None:
        raise ParseError("empty input: header but no data rows")
    return _series(text, symbol, timestamps, values, flavour)


def serialize_csv(series: Series) -> str:
    """Inverse of parse_csv: emits LF-terminated CSV that reparses to equal columns."""
    lines = [CSV_HEADER]
    for ts, *values in zip(*(column.tolist() for column in series.columns)):
        lines.append(",".join([format_timestamp(ts, series.timestamp_format), *map(repr, values)]))
    return "\n".join(lines) + "\n"
