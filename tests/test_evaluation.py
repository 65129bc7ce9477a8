import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlegate.evaluation import (
    ConfusionMatrix,
    EvalConfig,
    EvalRecord,
    MetricsRow,
    _origin_splits,
    apply_threshold,
    confusion,
    emit_forecast_trace,
    execution_rate,
    f1_score,
    metrics,
    parse_report_csv,
    parse_report_json,
    report,
    summarize,
    train_gate_on_series,
    walk_forward,
)
from candlegate.forecaster import Forecast, Side, drift_forecast
from candlegate.market_data import Series
from candlegate.reliability_gate import GateDecision, GateModel
from candlegate.rule_engine import bottoming_tail_rule

from conftest import candle_rows, make_series
from oracles import confusion_counts
from synthetic import make_regime_series, regime_flag_rule


def _zero_gate(dim=7, threshold=0.5):
    return GateModel(
        weights=(0.0,) * dim,
        threshold=threshold,
        feature_means=(0.0,) * dim,
        feature_stds=(1.0,) * dim,
        feature_names=tuple(f"f{i}" for i in range(dim)),
    )


def _record(predicted, realized, executed, score=0.5, origin=0):
    decision = GateDecision(executed=executed, score=score, threshold=0.5, rules=())
    forecast = Forecast(origin, (100.0,) * 2)
    return EvalRecord(
        origin_index=origin,
        predicted=predicted,
        realized=realized,
        decision=decision,
        forecast=forecast,
        verdicts=(),
    )


def test_minimal_series_yields_two_records():
    rng = np.random.default_rng(25)
    lookback, horizon = 5, 2
    series = make_series(rng, lookback + horizon + 1)
    cfg = EvalConfig(lookback=lookback, horizon=horizon, stride=1, train_fraction=0.0)
    records = walk_forward(series, drift_forecast, _zero_gate(), [], cfg)
    assert len(records) == 2
    assert [r.origin_index for r in records] == [4, 5]


def test_stride_equal_to_horizon_gives_nonoverlapping_count():
    rng = np.random.default_rng(26)
    lookback, horizon = 5, 3
    series = make_series(rng, 30)
    cfg = EvalConfig(lookback=lookback, horizon=horizon, stride=horizon, train_fraction=0.0)
    records = walk_forward(series, drift_forecast, _zero_gate(), [], cfg)
    n_origins = (30 - 1 - horizon) - (lookback - 1) + 1
    assert len(records) == len(range(0, n_origins, horizon))
    gaps = np.diff([r.origin_index for r in records])
    assert np.all(gaps == horizon)


def test_walk_forward_is_deterministic():
    rng = np.random.default_rng(27)
    series = make_series(rng, 60)
    cfg = EvalConfig(lookback=10, horizon=3, train_fraction=0.5)
    rules = [regime_flag_rule()]
    r1 = walk_forward(series, drift_forecast, None, rules, cfg)
    r2 = walk_forward(series, drift_forecast, None, rules, cfg)
    assert r1 == r2


def test_training_embargo_excludes_overlapping_horizons():
    rng = np.random.default_rng(28)
    series = make_series(rng, 20)
    cfg = EvalConfig(lookback=5, horizon=3, train_fraction=0.5)
    train_origins, eval_origins = _origin_splits(series, cfg)
    assert eval_origins[0] == 10
    # labels of training origins realize at t + horizon, which must not
    # postdate the first evaluation origin
    assert train_origins == [4, 5, 6, 7]
    assert all(t + cfg.horizon <= eval_origins[0] for t in train_origins)


def test_walk_forward_too_short_series():
    rng = np.random.default_rng(29)
    series = make_series(rng, 6)
    cfg = EvalConfig(lookback=5, horizon=3, train_fraction=0.0)
    with pytest.raises(ValueError, match="too short"):
        walk_forward(series, drift_forecast, _zero_gate(), [], cfg)


def test_confusion_empty_and_single():
    assert confusion([], Side.UP, gated=False) == ConfusionMatrix()
    records = [_record(Side.UP, Side.UP, executed=True)]
    cm = confusion(records, Side.UP, gated=False)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 0, 0, 0)


def test_confusion_matches_counting_oracle():
    rng = np.random.default_rng(30)
    sides = [Side.UP, Side.DOWN]
    records = [
        _record(
            predicted=sides[int(rng.integers(2))],
            realized=sides[int(rng.integers(2))],
            executed=bool(rng.integers(2)),
            origin=i,
        )
        for i in range(300)
    ]
    for positive in sides:
        for gated in (False, True):
            cm = confusion(records, positive, gated)
            pool = [r for r in records if not gated or r.decision.executed]
            tp, fp, tn, fn = confusion_counts(
                [(r.predicted, r.realized) for r in pool], positive
            )
            assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
            assert cm.total == len(pool)


def test_gated_totals_never_exceed_ungated():
    rng = np.random.default_rng(31)
    sides = [Side.UP, Side.DOWN]
    records = [
        _record(
            predicted=sides[int(rng.integers(2))],
            realized=sides[int(rng.integers(2))],
            executed=bool(rng.integers(2)),
            origin=i,
        )
        for i in range(100)
    ]
    for positive in sides:
        gated = confusion(records, positive, gated=True)
        ungated = confusion(records, positive, gated=False)
        assert gated.tp <= ungated.tp
        assert gated.fp <= ungated.fp
        assert gated.tn <= ungated.tn
        assert gated.fn <= ungated.fn


def test_metrics_formulas_and_undefined_markers():
    empty = metrics(ConfusionMatrix())
    assert empty == {"accuracy": None, "precision": None, "recall": None, "f1": None}

    cm = ConfusionMatrix(tp=3, fp=1, tn=4, fn=2)
    m = metrics(cm)
    assert m["accuracy"] == pytest.approx(7 / 10)
    assert m["precision"] == pytest.approx(3 / 4)
    assert m["recall"] == pytest.approx(3 / 5)
    p, r = 3 / 4, 3 / 5
    assert m["f1"] == pytest.approx(2 * p * r / (p + r))

    no_predictions = metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=2))
    assert no_predictions["precision"] is None
    assert no_predictions["f1"] is None
    assert no_predictions["accuracy"] == pytest.approx(5 / 7)


def test_f1_undefined_cases():
    assert f1_score(None, 0.5) is None
    assert f1_score(0.5, None) is None
    assert f1_score(0.0, 0.0) is None
    assert f1_score(0.5, 0.5) == pytest.approx(0.5)


def test_execution_rate():
    records = [_record(Side.UP, Side.UP, executed=True, origin=i) for i in range(3)]
    assert execution_rate(records) == 1.0
    records = [_record(Side.UP, Side.UP, executed=False, origin=i) for i in range(3)]
    assert execution_rate(records) == 0.0
    mixed = [
        _record(Side.UP, Side.UP, executed=(i < 3), origin=i) for i in range(50)
    ]
    assert execution_rate(mixed) == pytest.approx(0.06)
    with pytest.raises(ValueError):
        execution_rate([])


def test_summarize_rows_shape():
    records = [
        _record(Side.UP, Side.UP, executed=True, origin=0),
        _record(Side.UP, Side.DOWN, executed=False, origin=1),
        _record(Side.DOWN, Side.DOWN, executed=True, origin=2),
        _record(Side.DOWN, Side.UP, executed=True, origin=3),
    ]
    rows = summarize(records, "drift")
    assert [(r.model, r.side) for r in rows] == [
        ("drift", "Up"),
        ("drift+gate", "Up"),
        ("drift", "Down"),
        ("drift+gate", "Down"),
    ]
    assert rows[0].execution_rate == 1.0
    assert rows[1].execution_rate == pytest.approx(0.5)   # 1 of 2 Up predictions
    assert rows[3].execution_rate == pytest.approx(1.0)   # 2 of 2 Down predictions


def test_report_table_format():
    rows = [
        MetricsRow("m", "Up", 0.46, 0.55, 0.52, 0.53, 1.0),
        MetricsRow("m+gate", "Up", None, None, None, None, 0.06),
    ]
    text = report(rows, "table")
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == [
        "Models", "Side", "Accuracy", "Precision", "Recall", "F1", "score", "Execution", "Rate",
    ]
    assert "46%" in lines[1] and "55%" in lines[1] and "100%" in lines[1]
    assert "—" in lines[2] and "6%" in lines[2]


def test_report_csv_roundtrip_identity():
    rows = [
        MetricsRow("m", "Up", 0.4612, 0.557, 0.52, 0.5334, 1.0),
        MetricsRow("m+gate", "Up", None, 0.7, None, None, 0.06),
    ]
    text = report(rows, "csv")
    reparsed = parse_report_csv(text)
    assert reparsed == rows
    assert report(reparsed, "csv") == text


def test_report_json_roundtrip_and_null():
    rows = [MetricsRow("m", "Down", None, 0.83, 0.04, 0.08, 0.02)]
    text = report(rows, "json")
    payload = json.loads(text)
    assert payload[0]["accuracy"] is None
    assert parse_report_json(text) == rows


def test_flat_closes_realize_down_by_the_tie_policy():
    rows = ((86_400 * i, 100.0, 101.0, 99.0, 100.0, 1.0) for i in range(20))
    series = Series.from_rows("FLAT", rows, "epoch")
    cfg = EvalConfig(lookback=5, horizon=2, train_fraction=0.0)
    records = walk_forward(series, drift_forecast, _zero_gate(), [], cfg)
    assert {(r.predicted, r.realized) for r in records} == {(Side.DOWN, Side.DOWN)}


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        report([], "xml")


def test_forecast_trace_shape_and_join():
    rng = np.random.default_rng(32)
    series = make_series(rng, 40)
    cfg = EvalConfig(lookback=10, horizon=7, train_fraction=0.0)
    records = walk_forward(series, drift_forecast, _zero_gate(), [], cfg)
    text = emit_forecast_trace(records, series)
    lines = text.splitlines()
    assert lines[0] == "origin_timestamp,step,predicted,lower,upper,actual,executed"
    body = lines[1:]
    assert len(body) == 7 * len(records)
    closes = series.closes.tolist()
    by_ts = {ts: i for i, ts in enumerate(series.timestamps.tolist())}
    for line in body:
        ts, step, _, _, _, actual, executed = line.split(",")
        origin = by_ts[int(ts)]
        assert float(actual) == closes[origin + int(step)]
        assert executed in ("true", "false")
    # executed flag constant within each origin group
    for record in records:
        flags = {
            line.split(",")[-1]
            for line in body
            if int(line.split(",")[0]) == int(series.timestamps[record.origin_index])
        }
        assert len(flags) == 1


def test_apply_threshold_monotone_execution():
    series = make_regime_series(300, lookback=20, horizon=3, seed=3)
    cfg = EvalConfig(lookback=20, horizon=3, train_fraction=0.5)
    rules = [regime_flag_rule()]
    gate = train_gate_on_series(series, drift_forecast, rules, cfg)
    records = walk_forward(series, drift_forecast, gate, rules, cfg)
    rates = []
    sizes = []
    for threshold in np.arange(0.0, 1.0001, 0.05):
        regated = apply_threshold(records, gate, float(threshold))
        rates.append(execution_rate(regated))
        sizes.append(sum(1 for r in regated if r.decision.executed))
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert rates[0] == 1.0


def _regime_records_with_required_rule():
    """Records of a zero gate (every score 0.5) on the regime series, with the
    regime flag required: about half of them are rule vetoes."""
    series = make_regime_series(600, lookback=20, horizon=5, seed=3)
    rules = [regime_flag_rule()]
    cfg = EvalConfig(lookback=20, horizon=5, train_fraction=0.0, required_rules=(rules[0].name,))
    gate = _zero_gate(dim=8)
    return gate, walk_forward(series, drift_forecast, gate, rules, cfg)


def test_apply_threshold_at_gate_threshold_keeps_rule_vetoes():
    gate, records = _regime_records_with_required_rule()
    executed = sum(r.decision.executed for r in records)
    assert 0 < executed < len(records)
    regated = apply_threshold(records, gate, gate.threshold)
    assert [r.decision for r in regated] == [r.decision for r in records]


def test_regated_reasons_name_the_new_threshold_and_keep_rule_lines():
    gate, records = _regime_records_with_required_rule()
    regated = apply_threshold(records, gate, 0.75)
    assert {r.decision.reasons[1] for r in records} == {
        "rule regime_flag: passed",
        "rule regime_flag: failed (long_lower_tail)",
    }
    for before, after in zip(records, regated):
        assert before.decision.reasons[0] == "score 0.50 >= threshold 0.50"
        assert after.decision.reasons[0] == "score 0.50 < threshold 0.75"
        assert after.decision.reasons[1:] == before.decision.reasons[1:]
        assert not after.decision.executed


def test_regime_gate_lifts_precision():
    series = make_regime_series(700, lookback=30, horizon=5, seed=4)
    cfg = EvalConfig(lookback=30, horizon=5, train_fraction=0.7)
    rules = [regime_flag_rule()]
    gate = train_gate_on_series(series, drift_forecast, rules, cfg)
    records = walk_forward(series, drift_forecast, gate, rules, cfg)
    rate = execution_rate(records)
    assert 0.0 < rate < 1.0
    for side in (Side.UP, Side.DOWN):
        gated = metrics(confusion(records, side, gated=True))
        ungated = metrics(confusion(records, side, gated=False))
        assert gated["precision"] is not None and ungated["precision"] is not None
        assert gated["precision"] >= ungated["precision"] + 0.10


def _splice(head, tail, start):
    """head's candles before `start`, then tail's candles, on head's timestamps."""
    rows = candle_rows(head)[:start] + [
        row._replace(timestamp=ts) for row, ts in zip(candle_rows(tail)[start:], head.timestamps.tolist()[start:])
    ]
    return Series.from_rows(head.symbol, rows, head.timestamp_format)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    lookback=st.integers(2, 120),
    horizon=st.integers(1, 20),
    stride=st.integers(1, 10),
    train_fraction=st.floats(0.2, 0.9),
)
def test_embargo_training_never_reads_the_evaluation_segment(lookback, horizon, stride, train_fraction):
    series = make_series(np.random.default_rng(40), 2_000)
    cfg = EvalConfig(lookback=lookback, horizon=horizon, stride=stride, train_fraction=train_fraction)
    train_origins, eval_origins = _origin_splits(series, cfg)
    assert train_origins and all(t + horizon <= eval_origins[0] for t in train_origins)
    # Replace every candle after the first evaluation origin: the gate must not change.
    spliced = _splice(series, make_series(np.random.default_rng(41), 2_000), eval_origins[0] + 1)
    rules = [bottoming_tail_rule(min(lookback, 90))]
    gate = train_gate_on_series(series, drift_forecast, rules, cfg)
    assert train_gate_on_series(spliced, drift_forecast, rules, cfg) == gate
