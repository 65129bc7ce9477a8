"""Symbolic candlestick rules with human-legible evaluation traces.

A rule is a named conjunction of measurable predicates over the most recent
candle and its lookback window.  Every predicate is always measured (no
short-circuiting) so the trace explains the full decision, pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indicators import window_index
from .market_data import Series, Window

LOWEST_IN_WINDOW = "lowest_in_window"
SIZE_TOP_PCT = "size_top_pct"
VOLUME_TOP_PCT = "volume_top_pct"
TAIL_MIN_FRACTION = "tail_min_fraction"
BODY_UPPER_HALF = "body_upper_half"
CLOSE_TOP_FRACTION = "close_top_fraction"

PREDICATE_KINDS = frozenset(
    {
        LOWEST_IN_WINDOW,
        SIZE_TOP_PCT,
        VOLUME_TOP_PCT,
        TAIL_MIN_FRACTION,
        BODY_UPPER_HALF,
        CLOSE_TOP_FRACTION,
    }
)
_THRESHOLDED = frozenset({SIZE_TOP_PCT, VOLUME_TOP_PCT, TAIL_MIN_FRACTION, CLOSE_TOP_FRACTION})

DEFAULT_LOOKBACK = 90


class InsufficientHistoryError(ValueError):
    """The window is shorter than a predicate's lookback."""


@dataclass(frozen=True)
class Predicate:
    name: str
    kind: str
    lookback: int
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in PREDICATE_KINDS:
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.kind in _THRESHOLDED:
            if self.threshold is None or not (0.0 < self.threshold <= 1.0):
                raise ValueError(f"{self.kind} needs a threshold in (0, 1]")

    @property
    def cutoff(self) -> float:
        """The value a ranked or fraction measurement must reach to pass."""
        if self.kind == BODY_UPPER_HALF:
            return 0.5
        # A minimum tail fraction is its threshold; "in the top q" is 1 - q.
        return self.threshold if self.kind == TAIL_MIN_FRACTION else 1.0 - self.threshold


@dataclass(frozen=True)
class Rule:
    name: str
    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        if not self.predicates:
            raise ValueError("rule needs at least one predicate")
        names = [p.name for p in self.predicates]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate predicate names in rule {self.name!r}")

    @property
    def max_lookback(self) -> int:
        return max(p.lookback for p in self.predicates)


@dataclass(frozen=True)
class TraceEntry:
    predicate: str
    measured: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    passed: bool
    trace: tuple[TraceEntry, ...]


def bottoming_tail_rule(lookback: int = DEFAULT_LOOKBACK) -> Rule:
    """Reversal setup: a high-volume new low with a long lower wick and a
    strong close near the top of a large candle."""
    return Rule(
        name="bottoming_tail_candle",
        predicates=(
            Predicate("lowest_low_in_window", LOWEST_IN_WINDOW, lookback),
            Predicate("range_in_top_70pct", SIZE_TOP_PCT, lookback, threshold=0.70),
            Predicate("volume_in_top_10pct", VOLUME_TOP_PCT, lookback, threshold=0.10),
            Predicate("lower_tail_at_least_half_of_range", TAIL_MIN_FRACTION, lookback, threshold=0.50),
            Predicate("body_in_upper_half", BODY_UPPER_HALF, lookback),
            Predicate("close_in_top_quarter_of_range", CLOSE_TOP_FRACTION, lookback, threshold=0.25),
        ),
    )


def predicate_columns(rule: Rule, series: Series, ends: np.ndarray, window_len: int):
    """One (measured, threshold, passed) triple of columns per predicate of the
    rule, with one row per window ``[end - window_len, end)`` of the series.

    Each predicate sees the trailing `lookback` candles, inclusive of the
    candle under test (the window's last candle).
    """
    if window_len < rule.max_lookback:
        raise InsufficientHistoryError(
            f"rule {rule.name!r} needs {rule.max_lookback} candles, window has {window_len}"
        )
    last = ends - 1
    o, h, l, c, v = (column[last] for column in (series.opens, series.highs, series.lows,
                                                  series.closes, series.volumes))
    size = h - l
    # The fraction kinds are fractions of the candle's own range.  A zero-range
    # candle (o = h = l = c) divides 0 by 1, measures 0.0 and fails them by
    # fiat: a doji is not a bottoming tail.
    has_range = size > 0.0
    safe_size = size + ~has_range
    body_low = (np.minimum(o, c) - l) / safe_size
    fractions = {TAIL_MIN_FRACTION: body_low, BODY_UPPER_HALF: body_low,
                 CLOSE_TOP_FRACTION: (c - l) / safe_size}
    zeros = np.zeros(len(ends))
    index = window_index(ends, rule.max_lookback)
    columns = []
    for p in rule.predicates:
        window = index[:, rule.max_lookback - p.lookback :]
        if p.kind == LOWEST_IN_WINDOW:
            measured, threshold = l, np.minimum.reduce(series.lows[window], axis=1)
            passed = measured <= threshold
        elif p.kind in (SIZE_TOP_PCT, VOLUME_TOP_PCT):
            if p.kind == SIZE_TOP_PCT:
                values, x = series.highs[window] - series.lows[window], size
            else:
                values, x = series.volumes[window], v
            measured = np.add.reduce(values <= x[:, None], axis=1) / p.lookback
            threshold = zeros + p.cutoff
            passed = measured >= threshold
        else:
            measured, threshold = fractions[p.kind], zeros + p.cutoff
            passed = has_range & (measured >= threshold)
        columns.append((measured, threshold, passed))
    return columns


def rule_passed(columns) -> np.ndarray:
    """Per-row rule outcome: every predicate passed."""
    return np.logical_and.reduce([passed for _, _, passed in columns])


def rule_verdicts(rule: Rule, columns, rows=None) -> list[RuleVerdict]:
    """Verdicts with full traces for the given rows (all by default) of the columns."""
    names = [p.name for p in rule.predicates]
    values = [tuple(column.tolist() for column in triple) for triple in columns]
    verdicts = []
    for i in range(len(columns[0][0])) if rows is None else rows:
        trace = tuple(TraceEntry(name, m[i], t[i], ok[i]) for name, (m, t, ok) in zip(names, values))
        verdicts.append(RuleVerdict(rule=rule.name, passed=all(e.passed for e in trace), trace=trace))
    return verdicts


def evaluate_rule(rule: Rule, w: Window) -> RuleVerdict:
    """Measure every predicate of the rule against the window's last candle."""
    columns = predicate_columns(rule, w.series, np.array([w.end]), len(w))
    return rule_verdicts(rule, columns)[0]


def explain(verdict: RuleVerdict) -> list[str]:
    """One line per predicate plus a final rule outcome line."""
    lines = [
        f"{'PASS' if e.passed else 'FAIL'} {e.predicate}: "
        f"measured {e.measured:g} vs threshold {e.threshold:g}"
        for e in verdict.trace
    ]
    lines.append(f"{verdict.rule}: {'PASS' if verdict.passed else 'FAIL'}")
    return lines
