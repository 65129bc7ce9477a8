"""Output checks.  None depends on the seed; every failed check is counted.

Expected values are recomputed here from the generated inputs (closes, lows,
highs) or from an independent oracle, never by calling the function whose
output is being checked.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

UP, DOWN = "Up", "Down"
MAX_MESSAGES = 20


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(what)
        return ok


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(up: bool) -> str:
    return UP if up else DOWN


def check_decisions(checks: Checks, decisions, threshold: float, label: str) -> None:
    """decisions: (origin, score, executed, required_rules_passed) tuples."""
    for origin, score, executed, rules_ok in decisions:
        checks.check(
            executed == (score >= threshold and rules_ok),
            f"{label}: origin {origin} executed={executed} but score {score!r} "
            f"vs threshold {threshold} and required rules passed={rules_ok}",
        )


def record_decisions(records, offset: int = 0):
    """Decision tuples of records made with no required rule."""
    return [(r.origin_index + offset, r.decision.score, r.decision.executed, True) for r in records]


def check_directions(checks: Checks, closes: np.ndarray, records, horizon: int, offset: int = 0):
    """Predicted and realized sides against the generated closes; returns
    (predicted, realized, executed) triples built from the benchmark's values."""
    triples = []
    for r in records:
        origin = r.origin_index + offset
        last = float(closes[origin])
        predicted = side(r.forecast.path[-1] > last)
        realized = side(float(closes[origin + horizon]) > last)
        checks.check(
            r.predicted.value == predicted and r.realized.value == realized,
            f"origin {origin}: sides {r.predicted.value}/{r.realized.value}, "
            f"expected {predicted}/{realized}",
        )
        triples.append((predicted, realized, r.decision.executed))
    return triples


def expected_summary(triples, model: str) -> list[tuple]:
    """Report rows (model, side, accuracy, precision, recall, f1, execution_rate)."""

    def ratio(num, den):
        return num / den if den else None

    rows = []
    for positive in (UP, DOWN):
        for gated in (False, True):
            tp = fp = tn = fn = 0
            for predicted, realized, executed in triples:
                if gated and not executed:
                    continue
                if predicted == positive and realized == positive:
                    tp += 1
                elif predicted == positive:
                    fp += 1
                elif realized == positive:
                    fn += 1
                else:
                    tn += 1
            precision = ratio(tp, tp + fp)
            recall = ratio(tp, tp + fn)
            f1 = (
                None
                if precision is None or recall is None or precision + recall == 0
                else 2 * precision * recall / (precision + recall)
            )
            if gated:
                on_side = [e for p, _, e in triples if p == positive]
                rate = ratio(sum(on_side), len(on_side))
            else:
                rate = 1.0 if triples else None
            rows.append(
                (
                    f"{model}+gate" if gated else model,
                    positive,
                    ratio(tp + tn, tp + fp + tn + fn),
                    precision,
                    recall,
                    f1,
                    rate,
                )
            )
    return rows


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def rows_tuples(rows) -> list[tuple]:
    return [
        (r.model, r.side, r.accuracy, r.precision, r.recall, r.f1, r.execution_rate)
        for r in rows
    ]


def check_rows(checks: Checks, rows, expected: list[tuple], label: str) -> None:
    got = rows_tuples(rows)
    checks.check(len(got) == len(expected), f"{label}: {len(got)} rows, expected {len(expected)}")
    for g, e in zip(got, expected):
        checks.check(all(_same(x, y) for x, y in zip(g, e)), f"{label}: row {g} != expected {e}")


def check_oracle(checks: Checks, oracles, market, verdicts, lookback: int, label: str) -> None:
    """verdicts: (global origin, RuleVerdict of the bottoming-tail rule)."""
    for origin, verdict in verdicts:
        expected = oracles.brute_force_bottoming_tail(
            market.candle_tuples(origin - lookback + 1, origin + 1), lookback
        )
        got = [e.passed for e in verdict.trace]
        checks.check(
            got == expected and verdict.passed == all(expected),
            f"{label}: origin {origin} rule predicates {got} != oracle {expected}",
        )


def check_envelopes(checks: Checks, market, fits, label: str) -> None:
    """fits: (start, end, support line, resistance line) over global indices.

    Every low lies on or above the support line and touches it somewhere;
    every high lies on or below the resistance line and touches it somewhere.
    """
    for start, end, support, resistance in fits:
        steps = np.arange(end - start, dtype=np.float64)
        lows = market.lows[start:end]
        highs = market.highs[start:end]
        tol = 1e-9 * float(highs.max())
        below = lows - (support.intercept + support.slope * steps)
        above = (resistance.intercept + resistance.slope * steps) - highs
        checks.check(
            abs(below.min()) <= tol,
            f"{label}: support envelope of [{start}, {end}) off by {below.min()!r}",
        )
        checks.check(
            abs(above.min()) <= tol,
            f"{label}: resistance envelope of [{start}, {end}) off by {above.min()!r}",
        )


def check_monotone(checks: Checks, sweep, label: str) -> None:
    """Gated execution rates never rise as the threshold rises."""
    previous = None
    for threshold, rows in sweep:
        rates = [r.execution_rate for r in rows if r.model.endswith("+gate")]
        if previous is not None:
            for before, now in zip(previous, rates):
                checks.check(
                    before is None or now is None or now <= before,
                    f"{label}: execution rate rose to {now} at threshold {threshold}",
                )
        previous = rates


def sample(rng: np.random.Generator, items: list, k: int) -> list:
    if len(items) <= k:
        return list(items)
    picks = np.sort(rng.choice(len(items), size=k, replace=False))
    return [items[i] for i in picks.tolist()]
