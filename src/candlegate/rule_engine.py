"""Symbolic candlestick rules with human-legible evaluation traces.

A rule is a named conjunction of measurable predicates over the most recent
candle and its lookback window.  Every predicate is always measured (no
short-circuiting) so the trace explains the full decision, pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
_RANKED = frozenset({SIZE_TOP_PCT, VOLUME_TOP_PCT})

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

    @cached_property
    def cutoff(self) -> float:
        """The value a ranked or fraction measurement must reach to pass, made once."""
        if self.kind == BODY_UPPER_HALF:
            return 0.5
        # A minimum tail fraction is its threshold; "in the top q" is 1 - q.
        return self.threshold if self.kind == TAIL_MIN_FRACTION else 1.0 - self.threshold

    @cached_property
    def ranked_entries(self) -> dict[float, TraceEntry]:
        """A ranked predicate's trace entry for each value it can measure, ``count / lookback``,
        made once: every verdict that measures a count shares its entry."""
        values = (count / self.lookback for count in range(self.lookback + 1))
        return {m: TraceEntry(self.name, m, self.cutoff, m >= self.cutoff) for m in values}


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

    def check_window(self, window_len: int) -> None:
        if window_len < self.max_lookback:
            raise InsufficientHistoryError(f"rule {self.name!r} needs {self.max_lookback} candles, "
                                           f"window has {window_len}")


@dataclass(frozen=True, slots=True)
class TraceEntry:
    predicate: str
    measured: float
    threshold: float
    passed: bool


@dataclass(frozen=True, slots=True)
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
    rule.check_window(window_len)
    lookback = rule.max_lookback
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
    index = window_index(ends, lookback)
    columns = []
    for p in rule.predicates:
        window = index[:, lookback - p.lookback :]
        if p.kind == LOWEST_IN_WINDOW:
            measured, threshold = l, np.minimum.reduce(series.lows[window], axis=1)
            passed = measured <= threshold
        elif p.kind in _RANKED:
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
    """Verdicts with full traces for the given rows (all by default) of the columns.

    A ranked predicate's entries are shared (``Predicate.ranked_entries``), and
    predicates that measure one column share each row's value of it.
    """
    # Once per call: the slot of each distinct measured column, so a row boxes its value once.
    # A constant threshold column is ``zeros + cutoff``, equal bit for bit to the cutoff float.
    slots, measured, plan = {}, [], []
    for p, (m, t, ok) in zip(rule.predicates, columns):
        k = slots.setdefault(id(m), len(measured))
        if k == len(measured):
            measured.append(m)
        shared = p.ranked_entries if p.kind in _RANKED else None
        plan.append((p.name, k, shared, None if p.kind == LOWEST_IN_WINDOW else p.cutoff, t, ok))
    verdicts = []
    for i in range(len(columns[0][0])) if rows is None else rows:
        values = [m.item(i) for m in measured]
        trace = tuple(
            TraceEntry(name, values[k], t.item(i) if cut is None else cut, ok.item(i)) if shared is None
            else shared[values[k]]
            for name, k, shared, cut, t, ok in plan
        )
        verdicts.append(RuleVerdict(rule=rule.name, passed=all(e.passed for e in trace), trace=trace))
    return verdicts


def required_positions(rule_names, required) -> tuple[int, ...]:
    """Positions of the required rules among the named ones, in the order required.

    A required rule that is not named, or is required twice, is a ValueError."""
    position = {name: i for i, name in enumerate(rule_names)}
    missing = [name for name in required if name not in position]
    if missing:
        raise ValueError(f"required rule(s) {missing} not among rules {list(position)}")
    if len(set(required)) < len(required):
        repeated = next(name for i, name in enumerate(required) if name in required[:i])
        raise ValueError(f"required rule {repeated!r} is given more than once")
    return tuple(position[name] for name in required)


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
