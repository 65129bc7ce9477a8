"""Primary forecasters (M1): multi-step baselines and external prediction import.

Forecasts at many origins are held as read-only columns (Forecasts), one row
per origin and one column per step.  The baselines are Baseline objects: kernels
on the gathered (N, L) close windows of a block of origins that work row by
row, and run on one row when called on one window.  External model
predictions enter through a long-format CSV keyed by origin timestamp; joins
are exact, never nearest-match.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .indicators import blocks, volatilities, window_index
from .market_data import (
    ParseError,
    Series,
    Window,
    _data_record,
    _read_csv,
    _read_data,
    _timestamps,
    first_fault,
    format_timestamp,
)

EXTERNAL_HEADER_BASE = "origin_timestamp,step,predicted_close"
EXTERNAL_HEADER_FULL = "origin_timestamp,step,predicted_close,lower,upper"

DEFAULT_COVERAGE = 0.68


class Side(enum.Enum):
    UP = "Up"
    DOWN = "Down"

    def __str__(self) -> str:
        return self.value


def _first_fault(paths: np.ndarray, lower=None, upper=None) -> tuple[int, str] | None:
    """(row, message) of the first forecast along axis 0 that breaks an invariant, or None.

    This is the one statement of the forecast invariants: a non-empty path,
    an interval of both bounds shaped like the path, finite values, and an
    interval that brackets the path.  The last axis holds the steps; a fault
    of the shapes is reported at row 0.
    """
    if paths.shape[-1] == 0:
        return 0, "forecast path is empty"
    if (lower is None) != (upper is None):
        return 0, "interval needs both lower and upper paths"
    if lower is not None and not lower.shape == paths.shape == upper.shape:
        return 0, "interval paths must match the horizon"
    if lower is None:
        lower = upper = paths
    # Finite bounds that bracket the path make a finite path.
    finite, brackets = np.isfinite(lower) & np.isfinite(upper), (lower <= paths) & (paths <= upper)
    ok = finite & brackets
    if np.count_nonzero(ok) == ok.size:
        return None
    return first_fault((
        ("forecast values must be finite", ~(finite & np.isfinite(paths)).all(axis=1)),
        ("interval must bracket the path pointwise", ~brackets.all(axis=1)),
    ))


@dataclass(frozen=True)
class Forecast:
    """Point path over a horizon and an optional central interval; whatever holds it keys its origin."""

    path: tuple[float, ...]
    lower: tuple[float, ...] | None = None
    upper: tuple[float, ...] | None = None

    def __post_init__(self):
        if fault := _first_fault(*(None if c is None else np.array([c], dtype=np.float64)
                                   for c in (self.path, self.lower, self.upper))):
            raise ValueError(fault[1])

    @classmethod
    def _from_checked(cls, path, lower=None, upper=None) -> "Forecast":
        """A Forecast of values whose invariants were already checked."""
        forecast = cls.__new__(cls)
        forecast.__dict__.update(path=path, lower=lower, upper=upper)
        return forecast

    @property
    def horizon(self) -> int:
        return len(self.path)


@dataclass(frozen=True, eq=False)
class Forecasts(Sequence):
    """Forecasts at N origins as read-only columns: ``paths`` (N, H) and the
    optional interval bounds ``lower`` and ``upper`` (N, H).  Row i is the
    forecast at the i-th origin of whoever holds the columns.

    Construction copies the columns and checks every row at once.  As a
    sequence it holds Forecasts, each built only when read.
    """

    paths: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        for name in ("paths", "lower", "upper"):
            if getattr(self, name) is not None:
                column = np.array(getattr(self, name), dtype=np.float64)
                column.flags.writeable = False
                object.__setattr__(self, name, column)
        if self.paths.ndim != 2:
            raise ValueError(f"need paths (N, H), got shape {self.paths.shape}")
        if fault := _first_fault(self.paths, self.lower, self.upper):
            raise ValueError(fault[1])

    @classmethod
    def stack(cls, forecasts: Sequence[Forecast]) -> "Forecasts":
        """The given forecasts as rows.  They must share a horizon and all have
        intervals, or none."""
        horizons = sorted({f.horizon for f in forecasts})
        if len(horizons) > 1:
            raise ValueError(f"forecasts differ in horizon: {horizons}")
        with_interval = {f.lower is not None for f in forecasts}
        if len(with_interval) > 1:
            raise ValueError("forecasts must all have intervals, or none")
        interval = ()
        if with_interval == {True}:
            interval = ([f.lower for f in forecasts], [f.upper for f in forecasts])
        return cls([f.path for f in forecasts], *interval)

    @property
    def horizon(self) -> int:
        return self.paths.shape[1]

    def take(self, rows: np.ndarray) -> "Forecasts":
        """The forecasts of the given rows, in that order."""
        interval = () if self.lower is None else (self.lower[rows], self.upper[rows])
        return Forecasts(self.paths[rows], *interval)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> Forecast:
        i = range(len(self))[i]
        return _row(i, self.paths, self.lower, self.upper)


def _row(i: int, paths, lower, upper) -> Forecast:
    """Row i of checked columns as a Forecast."""
    interval = () if lower is None else (tuple(lower[i].tolist()), tuple(upper[i].tolist()))
    return Forecast._from_checked(tuple(paths[i].tolist()), *interval)


@lru_cache(maxsize=64)
def coverage_z(coverage: float) -> float:
    """Standard-normal quantile for a central interval of the given coverage."""
    if not (0.0 < coverage < 1.0):
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    return NormalDist().inv_cdf(0.5 + coverage / 2.0)


@lru_cache(maxsize=64)
def _steps(horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Step numbers 1..horizon as floats, and their square roots."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    steps = np.arange(1.0, horizon + 1.0)
    roots = np.sqrt(steps)
    steps.flags.writeable = roots.flags.writeable = False
    return steps, roots


_TREND_KERNELS = frozenset({"drift", "linreg"})  # they extrapolate a trend, so need 2 candles


def check_lookback(name: str, lookback: int) -> None:
    """The named baseline can forecast from a window of ``lookback`` candles."""
    if name in _TREND_KERNELS and lookback < 2:
        raise ValueError(f"{name} forecast needs a window of at least 2 candles")


def _diffusion_interval(paths, roots, last, sigma, coverage):
    """Bounds z * sigma * last * sqrt(step) either side of each path; ``last`` is a column."""
    spreads = coverage_z(coverage) * sigma[:, None] * last * roots
    return paths - spreads, paths + spreads


def _naive(closes: np.ndarray, horizon: int, coverage: float):
    _, roots = _steps(horizon)
    last = closes[:, -1:]
    paths = np.repeat(last, horizon, axis=1)
    # One close has no returns: its interval has zero width.
    sigma = volatilities(closes) if closes.shape[1] >= 2 else np.zeros(len(closes))
    return paths, *_diffusion_interval(paths, roots, last, sigma, coverage)


def _drift(closes: np.ndarray, horizon: int, coverage: float):
    steps, roots = _steps(horizon)
    check_lookback("drift", closes.shape[1])
    last = closes[:, -1:]
    paths = last + steps * ((last - closes[:, :1]) / (closes.shape[1] - 1))
    return paths, *_diffusion_interval(paths, roots, last, volatilities(closes), coverage)


def _linreg(closes: np.ndarray, horizon: int, coverage: float):
    steps, _ = _steps(horizon)
    check_lookback("linreg", closes.shape[1])
    n = closes.shape[1]
    idx = np.arange(n, dtype=np.float64)
    # One polyfit per row: a 2-D polyfit differs from it in the last bits.
    fits = np.array([np.polyfit(idx, row, 1) for row in closes]).reshape(-1, 2)
    slopes, intercepts = fits[:, :1], fits[:, 1:]
    paths = intercepts + slopes * (n - 1 + steps)
    residuals = closes - (intercepts + slopes * idx)
    resid_std = np.sqrt(np.add.reduce(residuals**2, axis=1) / (n - 2)) if n > 2 else np.zeros(len(closes))
    width = (coverage_z(coverage) * resid_std)[:, None]
    return paths, paths - width, paths + width


class BlockForecaster:
    """A forecaster whose unit of work is a block of origins.

    ``forecasts(series, origins, lookback, horizon)`` forecasts from the
    trailing ``lookback`` candles of each origin.  Called on one window, it
    forecasts at that window's last candle alone.
    """

    def forecasts(self, series: Series, origins: np.ndarray, lookback: int, horizon: int) -> Forecasts:
        raise NotImplementedError

    def __call__(self, w: Window, horizon: int) -> Forecast:
        return self.forecasts(w.series, np.array([w.end - 1]), len(w), horizon)[0]


@dataclass(frozen=True)
class Baseline(BlockForecaster):
    """A baseline kernel, run on the gathered windows of each block of origins."""

    kernel: Callable
    coverage: float = DEFAULT_COVERAGE

    def forecasts(self, series: Series, origins: np.ndarray, lookback: int, horizon: int) -> Forecasts:
        parts = [
            self.kernel(series.closes[window_index(block + 1, lookback)], horizon, self.coverage)
            for block in blocks(origins)
        ]
        return Forecasts(*map(np.concatenate, zip(*parts)))

    def __call__(self, w: Window, horizon: int) -> Forecast:
        """The kernel on the window's closes as one row.  This skips the index
        gather and block loop of ``BlockForecaster.__call__``, about a third of a
        one-window forecast and a tenth of a one-origin decision."""
        columns = self.kernel(w.closes[None, :], horizon, self.coverage)
        if fault := _first_fault(*columns):
            raise ValueError(fault[1])
        return _row(0, *columns)


naive_forecast = Baseline(_naive)  # the last close; the interval widens with sqrt(step)
drift_forecast = Baseline(_drift)  # the window's mean one-step close change, extrapolated
linreg_forecast = Baseline(_linreg)  # a least-squares line over (index, close), extrapolated


def is_up(close, origin_close):
    """Up iff strictly above the origin close: a tie is Down, so a flat call never
    goes long.  Works elementwise on arrays."""
    return close > origin_close


BASELINES = {
    "naive": naive_forecast,
    "drift": drift_forecast,
    "linreg": linreg_forecast,
}
KERNELS = {"naive": _naive, "drift": _drift, "linreg": _linreg}


@dataclass(frozen=True, eq=False)
class ExternalForecaster(BlockForecaster):
    """Loaded forecasts of one horizon, joined to origins by exact timestamp."""

    timestamps: np.ndarray  # ascending
    table: Forecasts  # row i holds the forecast made at timestamps[i]

    @classmethod
    def load(cls, text: str | bytes, series: Series, horizon: int) -> "ExternalForecaster":
        """The forecasts of an external forecast file; every one must have the horizon."""
        loaded = read_external_forecasts(text, series)
        if not len(loaded.timestamps):
            raise ValueError("the external forecast file holds no forecasts")
        horizons = np.diff(loaded.bounds)
        if (horizons != horizon).any():
            raise ValueError(
                f"external forecast horizon {horizons[(horizons != horizon).argmax()]} != configured {horizon}"
            )
        order = np.argsort(loaded.timestamps, kind="stable")
        columns = loaded.values.reshape(len(order), horizon, -1)[order]
        return cls(loaded.timestamps[order], Forecasts(*np.moveaxis(columns, -1, 0)))

    def forecasts(self, series: Series, origins: np.ndarray, lookback: int, horizon: int) -> Forecasts:
        if horizon != self.table.horizon:
            raise ValueError(f"external forecast horizon {self.table.horizon} != configured {horizon}")
        wanted = series.timestamps[origins]
        rows = np.minimum(np.searchsorted(self.timestamps, wanted), len(self.timestamps) - 1)
        missing = self.timestamps[rows] != wanted
        if missing.any():
            label = format_timestamp(int(wanted[missing.argmax()]), series.timestamp_format)
            raise ValueError(f"no external forecast for origin {label}")
        return self.table.take(rows)


def forecasts_at(forecaster, series: Series, origins: np.ndarray, lookback: int, horizon: int) -> Forecasts:
    """The forecasts at the origins, from their trailing ``lookback`` candles.

    A BlockForecaster makes them in one call.  Any other forecaster is a
    callable ``(window, horizon) -> Forecast``, called once per origin; its
    forecasts are stacked.
    """
    if isinstance(forecaster, BlockForecaster):
        return forecaster.forecasts(series, origins, lookback, horizon)
    return Forecasts.stack(
        [forecaster(series.window(o - lookback + 1, o + 1), horizon) for o in origins.tolist()]
    )


class ExternalColumns(NamedTuple):
    """A loaded external forecast file as columns, one origin per group of rows.

    ``timestamps`` is (G,) in file order; group g holds rows ``bounds[g]:bounds[g + 1]``
    of ``values``, whose columns are the path and, if given, the lower and upper
    bounds, with each group's rows in step order.
    """

    timestamps: np.ndarray
    bounds: np.ndarray
    values: np.ndarray


def _read_forecast_block(rows: list[list[str]], width: int):
    """Timestamps, steps and row-major values of a block of data rows.

    ValueError names a fault.  The checks run in the grammar's order (field
    count, timestamp, step, values, finiteness), so on one row it names that
    row's first fault.
    """
    if set(map(len, rows)) != {width}:
        row = next(row for row in rows if len(row) != width)
        raise ValueError(f"expected {width} fields, got {len(row)}: {row!r}")
    cells = list(chain.from_iterable(rows))
    epochs, _ = _timestamps(cells[::width])
    del cells[::width]
    try:
        steps = list(map(int, cells[:: width - 1]))
    except ValueError:
        for row in rows:  # name the first step that is not an integer
            try:
                int(row[1])
            except ValueError:
                raise ValueError(f"step {row[1]!r} is not an integer") from None
    del cells[:: width - 1]
    try:
        values = array("d", map(float, cells))
    except ValueError:
        raise ValueError(f"non-numeric value in {cells!r}") from None
    if not np.isfinite(np.frombuffer(values)).all():
        raise ValueError(f"non-finite value in {cells!r}")
    return epochs, steps, values


def _group_starts(timestamps: np.ndarray) -> np.ndarray:
    """The rows at which a group of rows of one origin starts."""
    return np.flatnonzero(np.concatenate(([len(timestamps) > 0], timestamps[1:] != timestamps[:-1])))


def _check_grouped(data, timestamps: array) -> None:
    """Raise the ParseError of the first row that starts a second group of rows for one origin."""
    timestamps = np.frombuffer(timestamps, dtype=np.int64)
    starts = _group_starts(timestamps)
    repeated = np.ones(len(starts), dtype=bool)
    repeated[np.unique(timestamps[starts], return_index=True)[1]] = False
    if repeated.any():
        line, cells = _data_record(data, int(starts[repeated.argmax()]))
        raise ParseError(f"rows for origin {cells[0]} are not grouped together", line=line)


def read_external_forecasts(text: str | bytes, series: Series | None = None) -> ExternalColumns:
    """Parse externally produced forecasts from CSV text into columns.

    Rows must be grouped by origin with steps contiguous from 1, and every
    value must be finite.  When a series is supplied, each origin timestamp
    must exist in it exactly.
    Malformed input raises ParseError with the line number (of the origin's
    first row for errors that span a whole origin).
    """
    header, blocks = _read_csv(text)
    if header is None:
        raise ParseError("empty forecast file")
    header_line, header_row = header
    names = ",".join(f.strip() for f in header_row)
    if names not in (EXTERNAL_HEADER_BASE, EXTERNAL_HEADER_FULL):
        raise ParseError(
            f"expected header {EXTERNAL_HEADER_BASE!r} or {EXTERNAL_HEADER_FULL!r}, got {names!r}",
            line=header_line,
        )

    width = len(names.split(","))
    timestamps, steps, values = array("q"), [], array("d")
    _read_data((timestamps, steps, values), blocks, lambda rows: _read_forecast_block(rows, width),
               lambda: _check_grouped(text, timestamps))
    _check_grouped(text, timestamps)

    ts = np.frombuffer(timestamps, dtype=np.int64)
    values = np.frombuffer(values).reshape(-1, width - 2)
    starts = _group_starts(ts)
    bounds = np.append(starts, len(ts))
    group = np.repeat(np.arange(len(starts)), np.diff(bounds))
    try:
        steps = np.array(steps, dtype=np.int64)
    except OverflowError:  # a step beyond 64 bits: never contiguous, but named as read
        steps = np.array(steps, dtype=object)
    order = np.lexsort((steps, group))
    steps, values = steps[order], values[order]
    # Every check of a whole origin at once; the first faulty origin is reported.
    gapped = np.zeros(len(starts), dtype=bool)
    gapped[group[steps != np.arange(len(ts)) - starts[group] + 1]] = True
    absent = np.zeros(len(starts), dtype=bool)
    if series is not None and len(starts):
        at = np.searchsorted(series.timestamps, ts[starts])
        absent = series.timestamps[np.minimum(at, len(series) - 1)] != ts[starts]
    faulty = gapped | absent
    if value_fault := _first_fault(*values.T[:, :, None]):  # each row's values as a one-step forecast
        faulty[group[value_fault[0]]] = True
    if faulty.any():
        g = int(faulty.argmax())
        line, cells = _data_record(text, int(starts[g]))
        label = cells[0]
        if gapped[g]:
            got = steps[bounds[g] : bounds[g + 1]].tolist()
            raise ParseError(f"origin {label}: steps must be contiguous from 1, got {got}", line=line)
        if absent[g]:
            raise ParseError(f"origin {label} not present in series {series.symbol!r}", line=line)
        raise ParseError(f"origin {label}: {value_fault[1]}", line=line)
    return ExternalColumns(ts[starts], bounds, values)


def load_external_forecasts(
    text: str | bytes, series: Series | None = None
) -> list[tuple[int, Forecast]]:
    """The forecasts of ``read_external_forecasts`` as (timestamp, Forecast) pairs in file order."""
    loaded = read_external_forecasts(text, series)
    columns = [column.tolist() for column in loaded.values.T]
    bounds = loaded.bounds.tolist()
    return [
        (ts, Forecast._from_checked(*(tuple(c[start:end]) for c in columns)))
        for ts, start, end in zip(loaded.timestamps.tolist(), bounds, bounds[1:])
    ]


def save_external_forecasts(
    items: list[tuple[int, Forecast]], timestamp_format: str = "iso"
) -> str:
    """Serialize (timestamp, Forecast) pairs to the external CSV format."""
    if not items:
        raise ValueError("nothing to serialize")
    with_interval = [f.lower is not None for _, f in items]
    if any(with_interval) and not all(with_interval):
        raise ValueError("forecasts must all have intervals, or none")
    has_interval = with_interval[0]
    lines = [EXTERNAL_HEADER_FULL if has_interval else EXTERNAL_HEADER_BASE]
    for ts, f in items:
        label = format_timestamp(ts, timestamp_format)
        for k, p in enumerate(f.path):
            if has_interval:
                lines.append(f"{label},{k + 1},{p!r},{f.lower[k]!r},{f.upper[k]!r}")
            else:
                lines.append(f"{label},{k + 1},{p!r}")
    return "\n".join(lines) + "\n"
