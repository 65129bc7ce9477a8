"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see every line as it executes.
"""

import time

import numpy as np

from candlegate.cli import main
from candlegate.evaluation import (
    EvalConfig,
    apply_threshold,
    f1_score,
    summarize,
    train_gate_on_series,
    walk_forward,
)
from candlegate.forecaster import drift_forecast
from candlegate.indicators import (
    fit_resistance_line,
    fit_support_line,
    resample_line,
)
from candlegate.prompt_prefix import BITCOIN_DOMAIN, PromptConfig, build_prompt
from candlegate.reliability_gate import log_loss_and_gradient
from candlegate.rule_engine import bottoming_tail_rule, evaluate_rule

from conftest import BACKTEST_FIXTURE, candle_rows, make_series, make_window
from oracles import brute_force_bottoming_tail
from synthetic import make_regime_series, regime_flag_rule


def _verdict_line(name: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_f1_consistent_with_published_rows():
    rows = [
        (0.55, 0.52, 0.53),
        (0.70, 0.07, 0.13),
        (0.32, 0.46, 0.38),
        (0.83, 0.04, 0.08),
    ]
    errors = [abs(f1_score(p, r) - target) for p, r, target in rows]
    ok = all(e <= 0.01 for e in errors)
    assert _verdict_line("f1-consistency", ok, f"max error {max(errors):.4f}")


def test_synthetic_gate_precision_lift():
    start = time.perf_counter()
    lookback, horizon = 30, 5
    series = make_regime_series(1750, lookback, horizon, seed=5)
    cfg = EvalConfig(lookback=lookback, horizon=horizon, stride=1, train_fraction=0.7)
    rules = [regime_flag_rule()]
    gate = train_gate_on_series(series, drift_forecast, rules, cfg)
    table = walk_forward(series, drift_forecast, gate, rules, cfg)
    elapsed = time.perf_counter() - start

    rows = summarize(table, "drift")
    ungated = {r.side: r for r in rows if r.model == "drift"}
    gated = {r.side: r for r in rows if r.model == "drift+gate"}
    lifts = {side: (gated[side].precision or 0.0) - (ungated[side].precision or 0.0) for side in ungated}
    rates_ok = all(0.0 < (row.execution_rate or 0.0) < 1.0 for row in gated.values())
    overall_rate = table.executed.mean()

    ok = (
        len(table) >= 500
        and all(lift >= 0.10 for lift in lifts.values())
        and rates_ok
        and 0.0 < overall_rate < 1.0
        and elapsed < 10.0
    )
    detail = (
        f"{len(table)} origins, lift Up {lifts['Up']:.2f} / Down {lifts['Down']:.2f}, "
        f"execution {overall_rate:.2f}, {elapsed:.1f}s"
    )
    assert _verdict_line("synthetic-precision-lift", ok, detail)


def test_rule_engine_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    rule = bottoming_tail_rule()
    disagreements = 0
    for _ in range(1000):
        series = make_series(rng, 90)
        verdict = evaluate_rule(rule, series.window(0, 90))
        rows = [c[1:] for c in candle_rows(series)]
        expected = brute_force_bottoming_tail(rows)
        if [e.passed for e in verdict.trace] != expected:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 5.0
    assert _verdict_line(
        "rule-oracle-equivalence", ok, f"{disagreements} disagreements, {elapsed:.1f}s"
    )


def test_prompt_golden_strings(btc_series):
    w = btc_series.window(0, len(btc_series))
    support = resample_line(fit_support_line(w), len(w), 6)
    resistance = resample_line(fit_resistance_line(w), len(w), 6)
    cfg = PromptConfig(asset="Bitcoin", domain=BITCOIN_DOMAIN, lookback=110, horizon=7)
    text = build_prompt(w, support, resistance, cfg)
    stats = (
        "[Statistics]: The input has a minimum value of 26511.2 and a maximum "
        "value of 49011.4, with an average value of 39621.6."
    )
    support_seq = "[26511.03 28884.81 31258.58 33632.36 36006.13 38379.9]"
    resistance_seq = "[38130.86 40504.64 42878.41 45252.18 47625.96 49999.73]"
    ok = stats in text and support_seq in text and resistance_seq in text
    assert _verdict_line("prompt-golden", ok)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 10))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        _, grad = log_loss_and_gradient(w, X, y)
        eps = 1e-6
        fd = np.empty(d)
        for i in range(d):
            probe = np.zeros(d)
            probe[i] = eps
            lp, _ = log_loss_and_gradient(w + probe, X, y)
            lm, _ = log_loss_and_gradient(w - probe, X, y)
            fd[i] = (lp - lm) / (2 * eps)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    assert _verdict_line("gradient-check", ok, f"worst relative error {worst:.2e}")


def test_threshold_sweep_monotonicity():
    lookback, horizon = 20, 3
    series = make_regime_series(400, lookback, horizon, seed=8)
    cfg = EvalConfig(lookback=lookback, horizon=horizon, train_fraction=0.5)
    rules = [regime_flag_rule()]
    gate = train_gate_on_series(series, drift_forecast, rules, cfg)
    table = walk_forward(series, drift_forecast, gate, rules, cfg)

    rates, sizes = [], []
    totals_ok = True
    for threshold in np.arange(0.0, 1.0001, 0.05):
        executed = apply_threshold(table, gate, float(threshold)).executed
        rates.append(executed.mean())
        sizes.append(int(np.count_nonzero(executed)))
        for up in (True, False):
            on_side = table.predicted_up == up
            totals_ok = totals_ok and np.count_nonzero(executed & on_side) <= np.count_nonzero(on_side)
    rate_monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    size_monotone = all(a >= b for a, b in zip(sizes, sizes[1:]))
    ok = rate_monotone and size_monotone and totals_ok
    assert _verdict_line(
        "threshold-monotonicity", ok,
        f"rates {rates[0]:.2f}->{rates[-1]:.2f} over {len(rates)} thresholds",
    )


def test_envelope_property():
    rng = np.random.default_rng(9)
    slack = 1e-9
    violations = 0
    for _ in range(1000):
        w = make_window(rng, int(rng.integers(2, 80)))
        idx = np.arange(len(w))
        support = fit_support_line(w)
        resistance = fit_resistance_line(w)
        sup_vals = support.intercept + support.slope * idx
        res_vals = resistance.intercept + resistance.slope * idx
        below = np.all(w.lows >= sup_vals - slack)
        above = np.all(w.highs <= res_vals + slack)
        touch_sup = np.min(w.lows - sup_vals) <= slack
        touch_res = np.min(res_vals - w.highs) <= slack
        if not (below and above and touch_sup and touch_res):
            violations += 1
    ok = violations == 0
    assert _verdict_line("envelope-property", ok, f"{violations} violations in 1000 windows")


def test_backtest_determinism(tmp_path):
    outputs = []
    for run in ("first", "second"):
        report_path = tmp_path / f"report_{run}.csv"
        trace_path = tmp_path / f"trace_{run}.csv"
        code = main(
            [
                "backtest", str(BACKTEST_FIXTURE),
                "--lookback", "95", "--horizon", "3", "--format", "csv",
                "--report-out", str(report_path), "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        outputs.append((report_path.read_bytes(), trace_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    assert _verdict_line("backtest-determinism", ok)
