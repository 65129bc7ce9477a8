"""Primary forecasters (M1): multi-step baselines and external prediction import.

Baselines are deterministic functions of the lookback window.  External model
predictions enter through a long-format CSV keyed by origin timestamp; joins
are exact, never nearest-match.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .indicators import volatilities
from .market_data import ParseError, Series, Window, _decode, _parse_timestamp, format_timestamp

EXTERNAL_HEADER_BASE = "origin_timestamp,step,predicted_close"
EXTERNAL_HEADER_FULL = "origin_timestamp,step,predicted_close,lower,upper"

DEFAULT_COVERAGE = 0.68


class Side(enum.Enum):
    UP = "Up"
    DOWN = "Down"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Forecast:
    """Point path over a horizon, optional central interval, known origin."""

    origin_index: int
    path: tuple[float, ...]
    lower: tuple[float, ...] | None = None
    upper: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.path:
            raise ValueError("forecast path is empty")
        if (self.lower is None) != (self.upper is None):
            raise ValueError("interval needs both lower and upper paths")
        if self.lower is not None:
            if len(self.lower) != len(self.path) or len(self.upper) != len(self.path):
                raise ValueError("interval paths must match the horizon")
            for lo, mid, hi in zip(self.lower, self.path, self.upper):
                if not (lo <= mid <= hi):
                    raise ValueError("interval must bracket the path pointwise")

    @property
    def horizon(self) -> int:
        return len(self.path)


def coverage_z(coverage: float) -> float:
    """Standard-normal quantile for a central interval of the given coverage."""
    if not (0.0 < coverage < 1.0):
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    return NormalDist().inv_cdf(0.5 + coverage / 2.0)


def _volatility_or_zero(w: Window) -> float:
    return float(volatilities(w.closes[None, :])[0]) if len(w) >= 2 else 0.0


def _diffusion_interval(path, last_close, sigma_frac, coverage):
    z = coverage_z(coverage)
    width = z * sigma_frac * last_close
    lower = tuple(float(p - width * np.sqrt(k + 1.0)) for k, p in enumerate(path))
    upper = tuple(float(p + width * np.sqrt(k + 1.0)) for k, p in enumerate(path))
    return lower, upper


def naive_forecast(w: Window, horizon: int, coverage: float = DEFAULT_COVERAGE) -> Forecast:
    """Repeat the last close; interval widens with the square root of the step."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    last = float(w.closes[-1])
    path = tuple([last] * horizon)
    lower, upper = _diffusion_interval(path, last, _volatility_or_zero(w), coverage)
    return Forecast(w.end - 1, path, lower, upper)


def drift_forecast(w: Window, horizon: int, coverage: float = DEFAULT_COVERAGE) -> Forecast:
    """Extrapolate the mean one-step close change of the window."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    closes = w.closes
    if len(closes) < 2:
        raise ValueError("drift forecast needs a window of at least 2 candles")
    last = float(closes[-1])
    step = float(closes[-1] - closes[0]) / (len(closes) - 1)
    path = tuple(last + (k + 1) * step for k in range(horizon))
    lower, upper = _diffusion_interval(path, last, _volatility_or_zero(w), coverage)
    return Forecast(w.end - 1, path, lower, upper)


def linreg_forecast(w: Window, horizon: int, coverage: float = DEFAULT_COVERAGE) -> Forecast:
    """Least-squares line over (index, close), extrapolated past the window."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    closes = w.closes
    n = len(closes)
    if n < 2:
        raise ValueError("linreg forecast needs a window of at least 2 candles")
    idx = np.arange(n, dtype=np.float64)
    slope, intercept = np.polyfit(idx, closes, 1)
    path = tuple(float(intercept + slope * (n + k)) for k in range(horizon))
    residuals = closes - (intercept + slope * idx)
    resid_std = float(np.sqrt(np.sum(residuals**2) / (n - 2))) if n > 2 else 0.0
    width = coverage_z(coverage) * resid_std
    lower = tuple(p - width for p in path)
    upper = tuple(p + width for p in path)
    return Forecast(w.end - 1, path, lower, upper)


def direction_of(forecast: Forecast, last_close: float) -> Side:
    """Directional call at the horizon endpoint. A tie is Down: a forecast of
    no gain must never trigger a long execution."""
    return Side.UP if forecast.path[-1] > last_close else Side.DOWN


BASELINES = {
    "naive": naive_forecast,
    "drift": drift_forecast,
    "linreg": linreg_forecast,
}


def load_external_forecasts(
    text: str | bytes, series: Series | None = None
) -> list[tuple[int, Forecast]]:
    """Parse externally produced forecasts from CSV text.

    Rows must be grouped by origin with steps contiguous from 1, and every
    value must be finite.  When a series is supplied, each origin timestamp
    must exist in it exactly and the returned forecasts carry the matching
    origin index.  Malformed input raises ParseError with the line number (of
    the origin's first row for errors that span a whole origin).
    """
    reader = csv.reader(io.StringIO(_decode(text)))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ParseError("empty forecast file")
    header_line, header_row = rows[0]
    header = ",".join(f.strip() for f in header_row)
    if header == EXTERNAL_HEADER_FULL:
        has_interval = True
    elif header == EXTERNAL_HEADER_BASE:
        has_interval = False
    else:
        raise ParseError(
            f"expected header {EXTERNAL_HEADER_BASE!r} or {EXTERNAL_HEADER_FULL!r}, got {header!r}",
            line=header_line,
        )

    expected = 5 if has_interval else 3
    groups: list[tuple[int, str, int, list]] = []
    seen: set[int] = set()
    for lineno, row in rows[1:]:
        if len(row) != expected:
            raise ParseError(f"expected {expected} fields, got {len(row)}: {row!r}", line=lineno)
        try:
            ts, _ = _parse_timestamp(row[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        try:
            step = int(row[1])
        except ValueError:
            raise ParseError(f"step {row[1]!r} is not an integer", line=lineno) from None
        try:
            values = tuple(float(f) for f in row[2:])
        except ValueError:
            raise ParseError(f"non-numeric value in {row[2:]!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"non-finite value in {row[2:]!r}", line=lineno)
        if not groups or groups[-1][0] != ts:
            if ts in seen:
                raise ParseError(f"rows for origin {row[0]} are not grouped together", line=lineno)
            seen.add(ts)
            groups.append((ts, row[0], lineno, []))
        groups[-1][3].append((step, values))

    out = []
    for ts, label, lineno, steps in groups:
        steps.sort(key=lambda s: s[0])
        got = [s for s, _ in steps]
        if got != list(range(1, len(got) + 1)):
            raise ParseError(f"origin {label}: steps must be contiguous from 1, got {got}", line=lineno)
        origin_index = -1
        if series is not None:
            origin_index = int(np.searchsorted(series.timestamps, ts))
            if ts not in series.timestamps[origin_index : origin_index + 1]:
                raise ParseError(
                    f"origin {label} not present in series {series.symbol!r}", line=lineno
                )
        path = tuple(v[0] for _, v in steps)
        lower = upper = None
        if has_interval:
            lower = tuple(v[1] for _, v in steps)
            upper = tuple(v[2] for _, v in steps)
        try:
            out.append((ts, Forecast(origin_index, path, lower, upper)))
        except ValueError as exc:
            raise ParseError(f"origin {label}: {exc}", line=lineno) from None
    return out


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
