import numpy as np
import pytest

from candlegate.market_data import Series
from candlegate.rule_engine import (
    InsufficientHistoryError,
    Predicate,
    Rule,
    bottoming_tail_rule,
    evaluate_rule,
    explain,
)

from conftest import Candle, candle_rows, make_series
from oracles import brute_force_bottoming_tail


def _baseline_candle(i, mid=100.0, volume=50.0):
    open_, close = mid, mid + 0.8
    return Candle(86400 * i, open_, close + 0.3, open_ - 0.5, close, volume)


def _all_pass_series(n=90):
    """89 quiet candles plus a last candle that meets every criterion."""
    candles = [_baseline_candle(i) for i in range(n - 1)]
    candles.append(Candle(86400 * (n - 1), 100.0, 104.0, 90.0, 103.0, 1000.0))
    return Series.from_rows("X", candles, "epoch")


def test_builtin_rule_structure():
    rule = bottoming_tail_rule()
    assert rule.name == "bottoming_tail_candle"
    assert len(rule.predicates) == 6
    assert all(p.lookback == 90 for p in rule.predicates)
    by_kind = {p.kind: p for p in rule.predicates}
    assert by_kind["size_top_pct"].threshold == 0.70
    assert by_kind["volume_top_pct"].threshold == 0.10
    assert by_kind["tail_min_fraction"].threshold == 0.50
    assert by_kind["close_top_fraction"].threshold == 0.25


def test_all_pass_window():
    series = _all_pass_series()
    verdict = evaluate_rule(bottoming_tail_rule(), series.window(0, len(series)))
    assert verdict.passed
    assert len(verdict.trace) == 6
    assert all(e.passed for e in verdict.trace)


def test_doji_fails_geometric_predicates():
    series = _all_pass_series()
    rows = candle_rows(series)
    rows[-1] = Candle(rows[-1].timestamp, 90.0, 90.0, 90.0, 90.0, 1000.0)
    series = Series.from_rows("X", rows, "epoch")
    verdict = evaluate_rule(bottoming_tail_rule(), series.window(0, len(series)))
    assert not verdict.passed
    failed = {e.predicate for e in verdict.trace if not e.passed}
    assert "lower_tail_at_least_half_of_range" in failed
    assert "body_in_upper_half" in failed
    assert "close_in_top_quarter_of_range" in failed


def test_insufficient_history():
    series = _all_pass_series(n=50)
    with pytest.raises(InsufficientHistoryError):
        evaluate_rule(bottoming_tail_rule(), series.window(0, 50))


def test_random_windows_match_brute_force():
    rng = np.random.default_rng(8)
    rule = bottoming_tail_rule()
    for _ in range(200):
        series = make_series(rng, 90)
        verdict = evaluate_rule(rule, series.window(0, 90))
        rows = [c[1:] for c in candle_rows(series)]
        expected = brute_force_bottoming_tail(rows)
        got = [e.passed for e in verdict.trace]
        assert got == expected
        assert verdict.passed == all(expected)


def test_verdict_passed_iff_all_trace_passed():
    rng = np.random.default_rng(9)
    rule = bottoming_tail_rule()
    for _ in range(50):
        series = make_series(rng, 95)
        verdict = evaluate_rule(rule, series.window(0, 95))
        assert verdict.passed == all(e.passed for e in verdict.trace)


def test_weakening_thresholds_never_flips_pass_to_fail():
    rng = np.random.default_rng(10)
    for _ in range(50):
        series = make_series(rng, 90)
        w = series.window(0, 90)
        strict = evaluate_rule(bottoming_tail_rule(), w)
        # "top q" kinds weaken by growing q; the minimum-tail kind weakens by
        # shrinking its required fraction.
        def weakened(p):
            if p.threshold is None:
                return p
            if p.kind == "tail_min_fraction":
                return Predicate(p.name, p.kind, p.lookback, p.threshold / 2)
            return Predicate(p.name, p.kind, p.lookback, min(1.0, p.threshold * 2))

        weak_rule = Rule(
            name="weakened",
            predicates=tuple(weakened(p) for p in bottoming_tail_rule().predicates),
        )
        weak = evaluate_rule(weak_rule, w)
        for before, after in zip(strict.trace, weak.trace):
            if before.passed:
                assert after.passed, f"{before.predicate} flipped on weakening"


def test_determinism():
    series = _all_pass_series()
    w = series.window(0, len(series))
    v1 = evaluate_rule(bottoming_tail_rule(), w)
    v2 = evaluate_rule(bottoming_tail_rule(), w)
    assert v1 == v2
    assert explain(v1) == explain(v2)


def test_earlier_history_only_affects_covered_lookbacks():
    # All lookbacks are 90, so evaluating with 10 extra candles of older
    # history must not change the verdict.
    rng = np.random.default_rng(11)
    series = make_series(rng, 100)
    short = evaluate_rule(bottoming_tail_rule(), series.window(10, 100))
    extended = evaluate_rule(bottoming_tail_rule(), series.window(0, 100))
    assert short == extended


def test_explain_format_all_pass():
    series = _all_pass_series()
    verdict = evaluate_rule(bottoming_tail_rule(), series.window(0, len(series)))
    lines = explain(verdict)
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "bottoming_tail_candle: PASS"
    # order in text matches trace order
    for line, entry in zip(lines, verdict.trace):
        assert entry.predicate in line


def test_explain_format_failure():
    rule = bottoming_tail_rule()
    series = _all_pass_series()
    # shrink the last volume so the volume predicate fails
    rows = candle_rows(series)
    rows[-1] = rows[-1]._replace(volume=1.0)
    series = Series.from_rows("X", rows, "epoch")
    verdict = evaluate_rule(rule, series.window(0, len(series)))
    lines = explain(verdict)
    assert any(line.startswith("FAIL volume_in_top_10pct") for line in lines)
    assert lines[-1] == "bottoming_tail_candle: FAIL"


def test_predicate_validation():
    with pytest.raises(ValueError):
        Predicate("x", "no_such_kind", 90)
    with pytest.raises(ValueError):
        Predicate("x", "size_top_pct", 90, threshold=0.0)
    with pytest.raises(ValueError):
        Predicate("x", "size_top_pct", 0, threshold=0.5)
    with pytest.raises(ValueError):
        Rule("r", ())
    p = Predicate("x", "lowest_in_window", 5)
    with pytest.raises(ValueError):
        Rule("r", (p, p))
