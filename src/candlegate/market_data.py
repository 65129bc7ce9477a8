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


def first_fault(checks) -> tuple[int, str] | None:
    """(row, message) of the earliest row that a check flags, or None: the one rule that picks
    a fault.  ``checks`` are ``(message, bad-rows mask)`` pairs in order of precedence, so at a
    row that several flag the check listed first is reported."""
    end, message = None, None
    for check, bad in checks:
        if bad[:end].any():
            end, message = int(bad.argmax()), check
    return None if end is None else (end, message)


def _first_violation(ts, o, h, l, c, v) -> tuple[int, str] | None:
    """(index, message) of the earliest candle that breaks an invariant, or None: the one
    statement of the candle invariants, each mask reading only the columns it needs."""
    fault = first_fault((
        ("all fields must be finite",
         ~(np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v))),
        ("all prices must be > 0", (o <= 0) | (h <= 0) | (l <= 0) | (c <= 0)),
        ("volume must be >= 0", v < 0),
        ("low must be <= high", l > h),
        ("low must be <= min(open, close)", l > np.minimum(o, c)),
        ("high must be >= max(open, close)", h < np.maximum(o, c)),
        ("timestamps must be strictly increasing ({} after {})", np.concatenate(([False], ts[1:] <= ts[:-1]))),
    ))
    if fault is None:
        return None
    i, message = fault
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
        if violation := _first_violation(*self.columns):
            raise ValidationError(violation[1], index=violation[0])

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
    """``(header, blocks)`` of str or UTF-8 CSV input.

    Bytes are decoded as they are read, so ASCII input is never decoded whole;
    other bytes are first checked whole by ``_decode``, so an undecodable byte
    is the first fault reported.  Leading byte order marks are dropped.
    ``header`` is ``(line, cells)`` of the first non-blank record, or None if
    there is none; ``blocks`` yields ``(lines, rows)`` for up to BLOCK further
    records at a time, without the blank ones.  Line numbers count records
    from 1, blank ones included.
    """
    if isinstance(data, str):
        stream = io.StringIO(data)
    else:
        if not data.isascii():
            _decode(data)
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


def _read_block(rows: list[list[str]], flavour: str) -> tuple[array, array]:
    """Timestamps and row-major values of a block of data rows.

    ValueError names a fault.  The checks run in the grammar's order (field
    count, timestamp, flavour, values), so on one row it names that row's first fault.
    """
    if set(map(len, rows)) != {6}:
        raise ValueError(f"expected 6 fields, got {next(len(row) for row in rows if len(row) != 6)}")
    cells = list(chain.from_iterable(rows))
    epochs, flavours = _timestamps(cells[::6])
    if flavours != {flavour}:
        raise ValueError(f"inconsistent timestamp format ({(flavours - {flavour}).pop()!r} after {flavour!r})")
    del cells[::6]
    try:
        return epochs, array("d", map(float, cells))
    except ValueError:
        raise ValueError(f"non-numeric field in {cells!r}") from None


def _read_data(columns, blocks, read, check_earlier) -> None:
    """Extend the columns by the parts that ``read`` returns for each ``(lines, rows)`` block.

    A block that ``read`` rejects is read again one row at a time.  At the
    first rejected row, ``check_earlier()`` may raise the fault of a row read
    before it; otherwise that row's ValueError is raised as a ParseError on its line.
    """
    for lines, rows in blocks:
        try:
            parts = read(rows)
        except ValueError as exc:
            if len(rows) > 1:
                _read_data(columns, (([line], [row]) for line, row in zip(lines, rows)), read, check_earlier)
                continue
            if columns[0]:
                check_earlier()
            raise ParseError(str(exc), line=lines[0]) from None
        for column, part in zip(columns, parts):
            column.extend(part)


def _series(data, symbol: str, timestamps: array, values: array, flavour: str) -> Series:
    """The Series of parsed columns; a violated invariant is a ParseError on its row's line."""
    try:
        return Series(symbol, timestamps, *np.frombuffer(values).reshape(-1, 5).T, flavour)
    except ValidationError as exc:
        raise ParseError(exc.reason, line=_data_record(data, exc.index)[0]) from None


def _refuse_blank(text: str | bytes) -> None:
    """Raise the empty-input ParseError if the text holds only byte order marks and white space.

    It decodes the whole text, so it runs only when the first record is not a header.
    """
    if _BLANK.fullmatch(_decode(text)):
        raise ParseError("empty input: no header or data rows")


def parse_csv(text: str | bytes, symbol: str = "") -> Series:
    """Parse OHLCV CSV text into a Series, reading BLOCK rows at a time into columns.

    A malformed row or a violated candle or ordering invariant raises
    ParseError with the line number of the earliest faulty row.
    """
    try:
        header, blocks = _read_csv(text)
    except ParseError:
        _refuse_blank(text)
        raise
    if header is None or not "".join(header[1]).strip():
        _refuse_blank(text)
    header_line, header_row = header
    names = ",".join(f.strip() for f in header_row)
    if names != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {names!r}", line=header_line)

    first = next(blocks, None)
    if first is None:
        raise ParseError("empty input: header but no data rows")
    # The first row fixes the timestamp flavour; if its timestamp is
    # malformed, that row is rejected before the flavour matters.
    try:
        _, flavour = _parse_timestamp(first[1][0][0])
    except ValueError:
        flavour = TS_ISO
    timestamps, values = array("q"), array("d")
    _read_data((timestamps, values), chain((first,), blocks), lambda rows: _read_block(rows, flavour),
               lambda: _series(text, symbol, timestamps, values, flavour))
    return _series(text, symbol, timestamps, values, flavour)
