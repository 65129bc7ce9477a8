"""Symbolic candlestick rules with human-legible evaluation traces.

A rule is a named conjunction of measurable predicates over the most recent
candle and its lookback window.  Every predicate is always measured (no
short-circuiting) so the trace explains the full decision, pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .indicators import candle_geometry, percentile_rank
from .market_data import Candle, Window

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


def _evaluate_predicate(p: Predicate, w: Window, candle: Candle) -> TraceEntry:
    # Each predicate sees the trailing `lookback` candles, inclusive of the
    # candle under test (the window's last candle).
    lo = w.end - p.lookback
    geo = candle_geometry(candle)

    if p.kind == LOWEST_IN_WINDOW:
        window_min = float(w.series.lows[lo : w.end].min())
        return TraceEntry(p.name, candle.low, window_min, candle.low <= window_min)

    if p.kind == SIZE_TOP_PCT:
        ranges = w.series.highs[lo : w.end] - w.series.lows[lo : w.end]
        rank = percentile_rank(ranges, geo.range)
        cutoff = 1.0 - p.threshold
        return TraceEntry(p.name, rank, cutoff, rank >= cutoff)

    if p.kind == VOLUME_TOP_PCT:
        rank = percentile_rank(w.series.volumes[lo : w.end], candle.volume)
        cutoff = 1.0 - p.threshold
        return TraceEntry(p.name, rank, cutoff, rank >= cutoff)

    # The remaining kinds are fractions of the candle's own range; a
    # zero-range candle fails them by fiat (a doji is not a bottoming tail).
    if p.kind == TAIL_MIN_FRACTION:
        cutoff = p.threshold
        if geo.range <= 0.0:
            return TraceEntry(p.name, 0.0, cutoff, False)
        frac = geo.lower_tail / geo.range
        return TraceEntry(p.name, frac, cutoff, frac >= cutoff)

    if p.kind == BODY_UPPER_HALF:
        cutoff = 0.5
        if geo.range <= 0.0:
            return TraceEntry(p.name, 0.0, cutoff, False)
        frac = (min(candle.open, candle.close) - candle.low) / geo.range
        return TraceEntry(p.name, frac, cutoff, frac >= cutoff)

    if p.kind == CLOSE_TOP_FRACTION:
        cutoff = 1.0 - p.threshold
        if geo.range <= 0.0:
            return TraceEntry(p.name, 0.0, cutoff, False)
        frac = (candle.close - candle.low) / geo.range
        return TraceEntry(p.name, frac, cutoff, frac >= cutoff)

    raise AssertionError(f"unhandled predicate kind {p.kind!r}")


def evaluate_rule(rule: Rule, w: Window) -> RuleVerdict:
    """Measure every predicate of the rule against the window's last candle."""
    if len(w) < rule.max_lookback:
        raise InsufficientHistoryError(
            f"rule {rule.name!r} needs {rule.max_lookback} candles, window has {len(w)}"
        )
    candle = w.last
    trace = tuple(_evaluate_predicate(p, w, candle) for p in rule.predicates)
    return RuleVerdict(rule=rule.name, passed=all(e.passed for e in trace), trace=trace)


def explain(verdict: RuleVerdict) -> list[str]:
    """One line per predicate plus a final rule outcome line."""
    lines = [
        f"{'PASS' if e.passed else 'FAIL'} {e.predicate}: "
        f"measured {e.measured:g} vs threshold {e.threshold:g}"
        for e in verdict.trace
    ]
    lines.append(f"{verdict.rule}: {'PASS' if verdict.passed else 'FAIL'}")
    return lines
