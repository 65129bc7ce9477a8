"""Trend-line envelopes and realized volatility.

The kernels take an (N, L) array holding N trailing windows, one row per
forecast origin, and work row by row, so a row's result does not depend on N.
The one-window functions call the same kernels on a single row; envelope_lines
also takes that row as a bare (L,) array.

Support/resistance lines are least-squares fits through the window lows/highs,
shifted so the line becomes a touching envelope (no low below the support line,
no high above the resistance line).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .market_data import BLOCK, Window

SUPPORT = "support"
RESISTANCE = "resistance"


@dataclass(frozen=True)
class TrendLine:
    """Line ``value(k) = intercept + slope * k`` over some integer step axis.

    Fitted lines use window indices as the axis; resample_line converts to a
    coarser sampling axis spanning the same window.
    """

    slope: float
    intercept: float
    kind: str


def blocks(items):
    """Consecutive slices of at most BLOCK items: origins per kernel call, which
    bounds the (BLOCK, L) window arrays a backtest holds."""
    return (items[i : i + BLOCK] for i in range(0, len(items), BLOCK))


def window_index(ends: np.ndarray, length: int) -> np.ndarray:
    """(N, length) indices whose row i runs over ``ends[i] - length .. ends[i] - 1``.

    Indexing a column with it gathers the trailing windows as one C-contiguous
    (N, length) array.  Every end must be >= length.
    """
    return ends[:, None] + np.arange(-length, 0)


@lru_cache(maxsize=64)
def _axis(length: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Steps 0..length-1 as floats, the same steps centered on their middle, the
    middle, and the sum of the squared centered steps, exactly."""
    steps = np.arange(length, dtype=np.float64)
    middle = (length - 1) / 2.0
    centered = steps - middle
    steps.flags.writeable = centered.flags.writeable = False
    return steps, centered, middle, length * (length**2 - 1) / 12


def check_line_window(length: int) -> None:
    """A trend line is fit to at least 2 candles."""
    if length < 2:
        raise ValueError(f"need at least 2 candles to fit a line, got {length}")


def envelope_lines(values: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the touching envelope of each row of values.

    Reduces over the last axis, so a bare (L,) window gives scalars and an
    (N, L) block gives (N,) columns with the same bits per row.  The slope is the
    closed-form least-squares slope on the centered index; the intercept is then
    shifted to the lowest (support) or highest (resistance) residual.
    """
    length = values.shape[-1]
    check_line_window(length)
    steps, centered, middle, denominator = _axis(length)
    slopes = np.add.reduce(values * centered, axis=-1) / denominator
    intercepts = np.add.reduce(values, axis=-1) / length - slopes * middle
    residuals = values - (intercepts[..., None] + slopes[..., None] * steps)
    shift = np.minimum if kind == SUPPORT else np.maximum
    return slopes, intercepts + shift.reduce(residuals, axis=-1)


def _one_line(values: np.ndarray, kind: str) -> TrendLine:
    slope, intercept = envelope_lines(values, kind)
    return TrendLine(slope=float(slope), intercept=float(intercept), kind=kind)


def fit_support_line(w: Window) -> TrendLine:
    """Lower envelope: regression slope through the lows, anchored at the lowest residual."""
    return _one_line(w.lows, SUPPORT)


def fit_resistance_line(w: Window) -> TrendLine:
    """Upper envelope: regression slope through the highs, anchored at the highest residual."""
    return _one_line(w.highs, RESISTANCE)


def resample_line(line: TrendLine, window_len: int, samples: int) -> TrendLine:
    """Re-express a window-indexed line as `samples` points spanning the window.

    Sample k of the result sits at window index k * (window_len-1) / (samples-1),
    so the first/last samples coincide with the line at the window edges.
    """
    if window_len < 1 or samples < 1:
        raise ValueError("window_len and samples must be >= 1")
    step = line.slope * (window_len - 1) / (samples - 1) if samples > 1 else 0.0
    return TrendLine(slope=step, intercept=line.intercept, kind=line.kind)


def volatilities(closes: np.ndarray) -> np.ndarray:
    """Sample standard deviation of one-step fractional close changes, per row.

    The operations are those of ``np.std(ddof=1)``, so each row has its bits.
    """
    length = closes.shape[1]
    if length < 2:
        raise ValueError(f"need at least 2 candles for volatility, got {length}")
    if length == 2:
        return np.zeros(len(closes))
    rets = closes[:, 1:] / closes[:, :-1] - 1.0
    deviations = rets - (np.add.reduce(rets, axis=1) / (length - 1))[:, None]
    return np.sqrt(np.add.reduce(deviations * deviations, axis=1) / (length - 2))
