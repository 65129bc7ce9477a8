import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlegate import indicators
from candlegate.evaluation import (
    EvalConfig,
    EvalTable,
    MetricsRow,
    _origin_splits,
    apply_threshold,
    emit_forecast_trace,
    f1_score,
    parse_report_csv,
    parse_report_json,
    report,
    summarize,
    train_gate_on_series,
    walk_forward,
)
from candlegate.forecaster import Forecasts, Side, drift_forecast
from candlegate.market_data import Series
from candlegate.reliability_gate import GateModel, decide
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


def _table(predicted_up, realized_up, scores, threshold=0.5, rules_ok=None):
    """A table of hand-made columns and no rule columns; rules_ok defaults to all passed."""
    n = len(predicted_up)
    return EvalTable(
        origins=np.arange(n),
        predicted_up=predicted_up,
        realized_up=realized_up,
        scores=scores,
        rules_ok=np.ones(n, dtype=bool) if rules_ok is None else rules_ok,
        threshold=threshold,
        forecasts=Forecasts(np.arange(n), np.full((n, 2), 100.0)),
    )


def _executed_table(sides):
    """(predicted, realized, executed) triples as a table: executed rows score 1, others 0."""
    predicted, realized, executed = zip(*sides) if sides else ((), (), ())
    return _table(
        [p == Side.UP for p in predicted], [r == Side.UP for r in realized],
        [1.0 if e else 0.0 for e in executed],
    )


def _row(rows, model, side):
    return next(r for r in rows if (r.model, r.side) == (model, side))


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
    assert list(r1) == list(r2)


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
    empty = summarize(_executed_table([]), "m")
    assert [astuple(r)[2:] for r in empty] == [(None,) * 5] * 4
    one = summarize(_executed_table([(Side.UP, Side.UP, True)]), "m")
    assert astuple(_row(one, "m", "Up"))[2:] == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert astuple(_row(one, "m+gate", "Down"))[2:] == (1.0, None, None, None, None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_confusion_matches_counting_oracle(data):
    """summarize on random bit columns, with scores tied at the threshold and
    one-sided or empty tables, against the counting oracle."""
    n = data.draw(st.integers(0, 40))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    predicted_up = data.draw(st.one_of(bits, st.just([True] * n), st.just([False] * n)))
    realized_up, rules_ok = data.draw(bits), data.draw(bits)
    # A coarse grid puts many scores exactly at the threshold.
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    scores = data.draw(st.lists(grid, min_size=n, max_size=n))
    threshold = data.draw(grid)
    table = _table(predicted_up, realized_up, scores, threshold, rules_ok)
    rows = summarize(table, "m")

    executed = [s >= threshold and ok for s, ok in zip(scores, rules_ok)]
    assert table.executed.tolist() == executed
    side = {True: Side.UP, False: Side.DOWN}
    ratio = lambda num, den: num / den if den else None
    for positive in (Side.UP, Side.DOWN):
        on_side = [e for p, e in zip(predicted_up, executed) if side[p] == positive]
        for gated, rate in ((False, 1.0 if n else None), (True, ratio(sum(on_side), len(on_side)))):
            pool = [
                (side[p], side[r]) for p, r, e in zip(predicted_up, realized_up, executed) if e or not gated
            ]
            tp, fp, tn, fn = confusion_counts(pool, positive)
            precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
            defined = precision is not None and recall is not None and precision + recall > 0
            f1 = 2 * precision * recall / (precision + recall) if defined else None
            row = _row(rows, "m+gate" if gated else "m", positive.value)
            assert astuple(row)[2:] == (ratio(tp + tn, len(pool)), precision, recall, f1, rate)


def test_gated_totals_never_exceed_ungated():
    rng = np.random.default_rng(31)
    table = _table(rng.integers(2, size=100) == 1, rng.integers(2, size=100) == 1, rng.uniform(size=100))
    executed = table.executed
    assert 0 < np.count_nonzero(executed) < len(table)
    for up in (True, False):
        predicted, realized = table.predicted_up == up, table.realized_up == up
        for cell in (predicted & realized, predicted & ~realized, ~predicted & realized, ~predicted & ~realized):
            assert np.count_nonzero(cell & executed) <= np.count_nonzero(cell)


def test_metrics_formulas_and_undefined_markers():
    empty = _row(summarize(_executed_table([]), "m"), "m", "Up")
    assert (empty.accuracy, empty.precision, empty.recall, empty.f1) == (None, None, None, None)

    # tp=3, fp=1, tn=4, fn=2 with Up as the positive side.
    up, down = Side.UP, Side.DOWN
    sides = [(up, up, True)] * 3 + [(up, down, True)] + [(down, down, True)] * 4 + [(down, up, True)] * 2
    m = _row(summarize(_executed_table(sides), "m"), "m", "Up")
    assert m.accuracy == pytest.approx(7 / 10)
    assert m.precision == pytest.approx(3 / 4)
    assert m.recall == pytest.approx(3 / 5)
    p, r = 3 / 4, 3 / 5
    assert m.f1 == pytest.approx(2 * p * r / (p + r))

    never_up = _executed_table([(down, down, True)] * 5 + [(down, up, True)] * 2)
    no_predictions = _row(summarize(never_up, "m"), "m", "Up")
    assert no_predictions.precision is None
    assert no_predictions.f1 is None
    assert no_predictions.accuracy == pytest.approx(5 / 7)


def test_f1_undefined_cases():
    assert f1_score(None, 0.5) is None
    assert f1_score(0.5, None) is None
    assert f1_score(0.0, 0.0) is None
    assert f1_score(0.5, 0.5) == pytest.approx(0.5)


def test_execution_rate():
    def gated_up_rate(executed):
        rows = summarize(_executed_table([(Side.UP, Side.UP, e) for e in executed]), "m")
        return _row(rows, "m+gate", "Up").execution_rate

    assert gated_up_rate([True] * 3) == 1.0
    assert gated_up_rate([False] * 3) == 0.0
    assert gated_up_rate([i < 3 for i in range(50)]) == pytest.approx(0.06)
    assert gated_up_rate([]) is None


def test_summarize_rows_shape():
    table = _executed_table([
        (Side.UP, Side.UP, True),
        (Side.UP, Side.DOWN, False),
        (Side.DOWN, Side.DOWN, True),
        (Side.DOWN, Side.UP, True),
    ])
    rows = summarize(table, "drift")
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
    table = walk_forward(series, drift_forecast, gate, rules, cfg)
    rates = []
    sizes = []
    for threshold in np.arange(0.0, 1.0001, 0.05):
        regated = apply_threshold(table, gate, float(threshold))
        rates.append(regated.executed.mean())
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
    assert records.executed.tolist() == [r.decision.executed for r in records]
    regated = apply_threshold(records, gate, gate.threshold)
    assert list(regated) == list(records)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_apply_threshold_sweep_is_monotone(data):
    n = data.draw(st.integers(1, 40))
    unit = st.floats(0.0, 1.0)
    scores = data.draw(st.lists(st.one_of(unit, st.sampled_from([0.0, 0.5, 1.0])), min_size=n, max_size=n))
    rules_ok = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    thresholds = sorted(data.draw(st.lists(st.one_of(unit, st.sampled_from(scores)), min_size=2, max_size=8)))
    table = _table(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), [True] * n, scores, rules_ok=rules_ok
    )
    before, before_rates = None, None
    for t in thresholds:
        regated = apply_threshold(table, _zero_gate(), t)
        executed = regated.executed
        assert regated.threshold == t and np.array_equal(regated.scores, table.scores)
        assert not (executed & ~table.rules_ok).any()  # a rule veto holds at every threshold
        rates = [r.execution_rate for r in summarize(regated, "m") if r.model == "m+gate"]
        if before is not None:
            assert not (executed & ~before).any()
            assert all(a is None or b <= a for a, b in zip(before_rates, rates))
        before, before_rates = executed, rates


@pytest.mark.parametrize("required", [(), ("regime_flag",), ("bottoming_tail_candle", "regime_flag")])
def test_rows_read_on_demand_agree_with_the_columns(required):
    series = make_regime_series(600, lookback=20, horizon=5, seed=3)
    rules = [regime_flag_rule(), bottoming_tail_rule(15)]
    cfg = EvalConfig(lookback=20, horizon=5, train_fraction=0.0, required_rules=required)
    gate = _zero_gate(dim=9)  # every score is 0.5, exactly the threshold
    table = walk_forward(series, drift_forecast, gate, rules, cfg)
    rows = list(table)
    assert len(rows) == len(table) and table[-1] == rows[-1]
    with pytest.raises(IndexError):
        table[len(table)]
    for i, r in enumerate(rows):
        assert r.origin_index == table.origins[i]
        assert r.forecast == drift_forecast(series.window(r.origin_index - 19, r.origin_index + 1), 5)
        assert (r.predicted == Side.UP, r.realized == Side.UP) == (table.predicted_up[i], table.realized_up[i])
        assert [v.rule for v in r.verdicts] == [rule.name for rule in rules]
        assert r.decision == decide(r.decision.score, gate, list(r.verdicts), required)
        assert r.decision.executed == table.executed[i]


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
    table = walk_forward(series, drift_forecast, gate, rules, cfg)
    assert 0 < np.count_nonzero(table.executed) < len(table)
    rows = summarize(table, "drift")
    for side in ("Up", "Down"):
        gated, ungated = _row(rows, "drift+gate", side), _row(rows, "drift", side)
        assert gated.precision is not None and ungated.precision is not None
        assert gated.precision >= ungated.precision + 0.10


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


def _table_bytes(table: EvalTable) -> list[bytes]:
    """Every column of a decision table, rule columns included, as bytes."""
    forecasts = table.forecasts
    columns = [table.origins, table.predicted_up, table.realized_up, table.scores, table.rules_ok,
               forecasts.origins, forecasts.paths, forecasts.lower, forecasts.upper]
    columns += [column for rule in table.rule_columns for triple in rule for column in triple]
    return [column.tobytes() for column in columns]


@pytest.mark.parametrize("block", [3, 256, 1024])
def test_gate_and_table_do_not_depend_on_the_block_size(block, monkeypatch):
    """2,600 candles give 1,284 training and 1,287 evaluation origins: two or more
    blocks at every size tried, against one block holding every origin."""
    series = make_series(np.random.default_rng(41), 2600)
    rules = [bottoming_tail_rule(20)]
    cfg = EvalConfig(lookback=25, horizon=3, train_fraction=0.5)

    def run():
        gate = train_gate_on_series(series, drift_forecast, rules, cfg)
        table = walk_forward(series, drift_forecast, gate, rules, cfg)
        assert 0 < np.count_nonzero(table.executed) < len(table)
        return gate, _table_bytes(table), emit_forecast_trace(table, series)

    monkeypatch.setattr(indicators, "BLOCK", len(series))
    one_block = run()
    monkeypatch.setattr(indicators, "BLOCK", block)
    assert run() == one_block
