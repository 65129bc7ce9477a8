"""Independent reference implementations used to cross-check the engine.

Everything here works on plain Python values (or, where NumPy's own reductions
define the expected bits, NumPy arrays) and deliberately avoids calling into
candlegate, so a bug in the engine cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from datetime import date
from typing import NamedTuple

import numpy as np


def brute_force_bottoming_tail(candles, lookback: int = 90):
    """Re-derivation of the bottoming-tail criteria from first principles.

    `candles` is a sequence of (open, high, low, close, volume) tuples; the
    candle under test is the last one and each criterion looks at the trailing
    `lookback` candles inclusive.  Returns the list of per-criterion booleans
    in rule order.
    """
    if len(candles) < lookback:
        raise ValueError("not enough candles")
    window = candles[-lookback:]
    o, h, l, c, v = candles[-1]
    rng = h - l

    lowest = all(l <= low for _, _, low, _, _ in window)

    ranges = sorted(high - low for _, high, low, _, _ in window)
    rank_size = sum(1 for r in ranges if r <= rng) / len(ranges)
    size_top_70 = rank_size >= 1.0 - 0.70

    volumes = [vol for _, _, _, _, vol in window]
    rank_vol = sum(1 for x in volumes if x <= v) / len(volumes)
    vol_top_10 = rank_vol >= 1.0 - 0.10

    if rng > 0:
        tail_half = (min(o, c) - l) >= 0.50 * rng
        body_upper = min(o, c) >= (h + l) / 2.0
        close_top_quarter = c >= h - 0.25 * rng
    else:
        tail_half = body_upper = close_top_quarter = False

    return [lowest, size_top_70, vol_top_10, tail_half, body_upper, close_top_quarter]


def percentile_rank(values, x: float) -> float:
    """Fraction of values <= x. 'In the top q' of a window means rank >= 1 - q."""
    values = list(values)
    if not values:
        raise ValueError("percentile_rank of empty values")
    return sum(1 for value in values if value <= x) / len(values)


class CandleGeometry(NamedTuple):
    """Decomposition of a candle: range = body + lower_tail + upper_tail."""

    range: float
    body: float
    lower_tail: float
    upper_tail: float


def candle_geometry(candle) -> CandleGeometry:
    """Geometry of a candle with .open/.high/.low/.close attributes."""
    body_top = max(candle.open, candle.close)
    body_bottom = min(candle.open, candle.close)
    return CandleGeometry(
        range=candle.high - candle.low,
        body=body_top - body_bottom,
        lower_tail=body_bottom - candle.low,
        upper_tail=candle.high - body_top,
    )


def least_squares_line(xs, ys):
    """Slope/intercept from the normal equations, no numpy."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return slope, intercept


def confusion_counts(pairs, positive):
    """pairs: (predicted, realized) labels; returns (tp, fp, tn, fn)."""
    tp = fp = tn = fn = 0
    for predicted, realized in pairs:
        if predicted == positive:
            if realized == positive:
                tp += 1
            else:
                fp += 1
        else:
            if realized == positive:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def candle_violation(o, h, l, c, v):
    """First violated candle invariant of one row, in the engine's order, or None."""
    if not all(math.isfinite(x) for x in (o, h, l, c, v)):
        return "all fields must be finite"
    if o <= 0 or h <= 0 or l <= 0 or c <= 0:
        return "all prices must be > 0"
    if v < 0:
        return "volume must be >= 0"
    if l > h:
        return "low must be <= high"
    if l > min(o, c):
        return "low must be <= min(open, close)"
    if h < max(o, c):
        return "high must be >= max(open, close)"
    return None


def first_row_fault(rows):
    """(index, message) of the first faulty data row, checked one row at a time.

    `rows` holds (timestamp, cells) pairs: an int timestamp and the five
    open/high/low/close/volume strings.  Returns None when every row is valid.
    """
    prev = None
    for i, (ts, cells) in enumerate(rows):
        try:
            values = [float(x) for x in cells]
        except ValueError:
            return i, f"non-numeric field in {list(cells)!r}"
        violation = candle_violation(*values)
        if violation is not None:
            return i, violation
        if prev is not None and ts <= prev:
            return i, f"timestamps must be strictly increasing ({ts} after {prev})"
        prev = ts
    return None


def reference_timestamp(text: str):
    """Epoch seconds of an integer epoch or an ISO date label, or None."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return (date.fromisoformat(text) - date(1970, 1, 1)).days * 86_400
    except ValueError:
        return None


def load_forecast_rows(rows, has_interval: bool):
    """Reference reading of the external forecast CSV's data rows, one row at a time.

    ``rows`` holds the cell lists of file lines 2, 3, ...  Returns
    ``(forecasts, None)``, one ``(timestamp, path, lower, upper)`` per origin in
    file order, or ``(None, (line, message))`` for the first fault: every row is
    read before any origin is checked as a whole.
    """
    width = 5 if has_interval else 3
    groups = []  # [timestamp, label, first line, [(step, values), ...]]
    for line, cells in enumerate(rows, start=2):
        if len(cells) != width:
            return None, (line, f"expected {width} fields, got {len(cells)}: {cells!r}")
        ts = reference_timestamp(cells[0])
        if ts is None:
            return None, (line, f"timestamp {cells[0].strip()!r} is neither epoch seconds nor an ISO date")
        try:
            step = int(cells[1])
        except ValueError:
            return None, (line, f"step {cells[1]!r} is not an integer")
        try:
            values = [float(x) for x in cells[2:]]
        except ValueError:
            return None, (line, f"non-numeric value in {cells[2:]!r}")
        if not all(math.isfinite(v) for v in values):
            return None, (line, f"non-finite value in {cells[2:]!r}")
        if not groups or groups[-1][0] != ts:
            if any(group[0] == ts for group in groups):
                return None, (line, f"rows for origin {cells[0]} are not grouped together")
            groups.append([ts, cells[0], line, []])
        groups[-1][3].append((step, values))

    forecasts = []
    for ts, label, line, steps in groups:
        steps = sorted(steps, key=lambda item: item[0])
        got = [step for step, _ in steps]
        if got != list(range(1, len(got) + 1)):
            return None, (line, f"origin {label}: steps must be contiguous from 1, got {got}")
        path = tuple(values[0] for _, values in steps)
        lower = upper = None
        if has_interval:
            lower = tuple(values[1] for _, values in steps)
            upper = tuple(values[2] for _, values in steps)
            if not all(lo <= p <= hi for lo, p, hi in zip(lower, path, upper)):
                return None, (line, f"origin {label}: interval must bracket the path pointwise")
        forecasts.append((ts, path, lower, upper))
    return forecasts, None


def _fixed(x: float, decimals: int) -> str:
    s = f"{x:.{decimals}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


def reference_prompt(closes, support, resistance, asset, domain, lookback, horizon, samples):
    """The prompt prefix rendered by one f-string per call.

    `closes` is the window's 1-D float64 closes; `support` and `resistance` are
    (slope, intercept) pairs on the prompt's sampling axis, each emitted as
    `samples` values with 2 decimals.  Statistics get 1 decimal.
    """
    def sequence(line):
        slope, intercept = line
        return "[" + " ".join(_fixed(intercept + slope * k, 2) for k in range(samples)) + "]"

    low, high, mean = float(np.min(closes)), float(np.max(closes)), float(np.mean(closes))
    lines = [
        f"This dataset is the {asset} daily price chart.",
        "Below is the information about the input time series:",
        "",
        f"[Domain]: {domain}",
        f"[Instructions]: Predict the data for the next {horizon} steps "
        f"given the previous {lookback} steps.",
        "",
        f"[Statistics]: The input has a minimum value of {_fixed(low, 1)} and "
        f"a maximum value of {_fixed(high, 1)}, with an average value of "
        f"{_fixed(mean, 1)}.",
        f"Your predictions should take into account the behaviour that "
        f"{asset} prices tend to revert when approaching these support "
        f"and resistance levels.",
        "",
        f"1. Support Line: This sequence represents the lower boundary of the "
        f"{asset} price range over the considered period. Here is the "
        f"support line : {sequence(support)}. It is by definition a line.",
        "",
        f"2. Resistance Line: This sequence represents the upper boundary of "
        f"the {asset} price range over the considered period. Here is the "
        f"resistance line : {sequence(resistance)}. It is by definition a line.",
    ]
    return "\n".join(lines) + "\n"
