"""Differential tests of the block kernels.

Each kernel takes N trailing windows at once.  It must agree with an
independent reference, and a one-origin call must give exactly the bits of
its row in any batch, including batches that span a block boundary.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlegate import evaluation, forecaster, indicators, reliability_gate, rule_engine
from candlegate.evaluation import EvalConfig, train_gate_on_series, walk_forward
from candlegate.cli import _resolve_forecaster
from candlegate.forecaster import BASELINES, DEFAULT_COVERAGE, KERNELS, Baseline, BlockForecaster, Forecast
from candlegate.forecaster import drift_forecast
from candlegate.forecaster import save_external_forecasts
from candlegate.indicators import (
    BLOCK,
    RESISTANCE,
    SUPPORT,
    envelope_lines,
    fit_resistance_line,
    fit_support_line,
    volatilities,
    window_index,
)
from candlegate.market_data import Series
from candlegate.reliability_gate import (
    GateModel,
    decide,
    extract_features,
    feature_names,
    feature_rows,
    model_to_json,
    score,
    scores,
)
from candlegate.rule_engine import (
    bottoming_tail_rule,
    evaluate_rule,
    predicate_columns,
    rule_passed,
    rule_verdicts,
)

from conftest import assert_trace_is_its_row, candle_rows, forecast_bits, make_series, series_from_rows
from oracles import brute_force_bottoming_tail, least_squares_line

HYPOTHESIS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _gate(rules, seed: int = 0, threshold: float = 0.5) -> GateModel:
    """A random gate over the features of these rules."""
    names = feature_names([rule.name for rule in rules])
    dim = len(names)
    rng = np.random.default_rng(seed)
    return GateModel(
        weights=tuple(rng.normal(size=dim).tolist()),
        threshold=threshold,
        feature_means=tuple(rng.normal(0.0, 0.01, size=dim).tolist()),
        feature_stds=tuple(rng.uniform(0.01, 1.0, size=dim).tolist()),
        feature_names=names,
    )


@st.composite
def windows(draw):
    """(series, ends, length): a random series and N window ends on it."""
    length = draw(st.integers(2, 120))
    n = draw(st.integers(1, 40))
    series = make_series(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), length + n + 5)
    ends = np.array(sorted(draw(st.lists(st.integers(length, len(series)), min_size=n, max_size=n))))
    return series, ends, length


@HYPOTHESIS
@given(windows())
def test_envelopes_match_least_squares_oracle_and_touch(case):
    series, ends, length = case
    steps = list(range(length))
    for column, kind in ((series.lows, SUPPORT), (series.highs, RESISTANCE)):
        values = column[window_index(ends, length)]
        slopes, intercepts = envelope_lines(values, kind)
        for row, slope, intercept in zip(values, slopes.tolist(), intercepts.tolist()):
            ys = row.tolist()
            scale = max(ys)
            ref_slope, ref_intercept = least_squares_line(steps, ys)
            residuals = [y - (ref_intercept + ref_slope * k) for k, y in zip(steps, ys)]
            ref_intercept += min(residuals) if kind == SUPPORT else max(residuals)
            assert abs(slope - ref_slope) <= 1e-9 * max(abs(ref_slope), scale / length)
            assert abs(intercept - ref_intercept) <= 1e-9 * scale
            gap = (row - (intercept + slope * np.arange(length))) * (1 if kind == SUPPORT else -1)
            assert abs(gap.min()) <= 1e-9 * scale  # on or above (below) the line, and touching


def test_one_row_envelope_equals_its_row_of_the_block_call():
    """A bare (L,) row gives the bits of that row of an (N, L) call, at every length
    the prompt and the gate use and at rows on both sides of a block boundary."""
    rng = np.random.default_rng(11)
    for length in range(2, 258):
        block = rng.normal(100.0, 10.0, size=(BLOCK + 2, length)) * rng.uniform(0.01, 100.0)
        for kind in (SUPPORT, RESISTANCE):
            slopes, intercepts = envelope_lines(block, kind)
            for row in (BLOCK - 1, BLOCK, BLOCK + 1):
                slope, intercept = envelope_lines(block[row], kind)
                assert np.shape(slope) == np.shape(intercept) == ()
                one = np.array([slope, intercept]).tobytes()
                assert one == np.array([slopes[row], intercepts[row]]).tobytes(), (length, kind, row)
        for constant in indicators._axis(length)[:2]:
            assert not constant.flags.writeable
            with pytest.raises(ValueError):
                constant[0] = 1.0


def test_resistance_is_the_support_of_the_negated_values_bit_for_bit():
    """envelope_lines(h, RESISTANCE) is 0.0 - envelope_lines(-h, SUPPORT) in every bit,
    for (N, L) blocks and bare rows.  Plain negation is not: on flat and tied rows it
    gives -0.0 where the resistance fit gives 0.0, and 0.0 - x maps both zeros to 0.0."""
    rng = np.random.default_rng(12)
    for length in (*range(2, 40), 90, 110, 257):
        shape = (40, length)
        block = np.concatenate([
            rng.normal(100.0, 10.0, size=shape) * rng.uniform(0.01, 100.0),
            rng.choice([99.0, 100.0, 101.0], size=shape),  # tie-heavy
            np.full(shape, 100.0),
            np.round(rng.uniform(50.0, 150.0, size=shape), 2),  # cent-rounded
        ])
        for values in (block, *block[::20]):
            resistance = np.array(envelope_lines(values, RESISTANCE))
            mirrored = 0.0 - np.array(envelope_lines(-values, SUPPORT))
            assert np.array_equal(resistance.view(np.int64), mirrored.view(np.int64)), length


@st.composite
def tie_heavy_series(draw):
    """Candles on a small integer grid: many equal ranges and volumes, and dojis."""
    n = draw(st.integers(5, 60))
    rows = []
    for i in range(n):
        low, a, b, high = sorted(draw(st.lists(st.integers(1, 6), min_size=4, max_size=4)))
        o, c = (a, b) if draw(st.booleans()) else (b, a)
        rows.append((86_400 * i, float(o), float(high), float(low), float(c), float(draw(st.integers(0, 3)))))
    return series_from_rows("TIES", rows, "epoch")


@HYPOTHESIS
@given(tie_heavy_series(), st.integers(1, 5), st.data())
def test_verdicts_match_brute_force_oracle(series, lookback, data):
    rule = bottoming_tail_rule(lookback)
    ends = np.arange(lookback, len(series) + 1)
    columns = predicate_columns(rule, series, ends, lookback)
    verdicts = rule_verdicts(rule, columns)
    rows = [c[1:] for c in candle_rows(series)]
    for i, (end, verdict, passed) in enumerate(zip(ends.tolist(), verdicts, rule_passed(columns).tolist())):
        expected = brute_force_bottoming_tail(rows[end - lookback : end], lookback)
        assert [e.passed for e in verdict.trace] == expected
        assert verdict.passed == passed == all(expected)
        assert_trace_is_its_row(verdict, columns, i)
    end = int(data.draw(st.sampled_from(ends.tolist())))
    assert evaluate_rule(rule, series.window(end - lookback, end)) == verdicts[end - lookback]


# One short of, at and one past four whole blocks: every size spans several blocks.
BOUNDARY_SIZES = [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1]


def _assert_rows_match_one_origin(series, ends, length, gate, rule):
    """Every kernel's row i equals the one-origin function at window ends[i], bit for bit."""
    index = window_index(ends, length)
    support = envelope_lines(series.lows[index], SUPPORT)
    resistance = envelope_lines(series.highs[index], RESISTANCE)
    vols = volatilities(series.closes[index])
    columns = predicate_columns(rule, series, ends, length)
    verdicts = rule_verdicts(rule, columns)
    forecasts = [drift_forecast(series.window(end - length, end), 3) for end in ends.tolist()]
    predicted = np.array([f.path[-1] for f in forecasts])
    X = feature_rows(series, ends, length, predicted, rule_passed(columns)[:, None])
    batch_scores = scores(gate, X)
    for i in sorted({0, len(ends) - 1, *range(0, len(ends), 97)}):
        w = series.window(int(ends[i]) - length, int(ends[i]))
        assert fit_support_line(w) == indicators.TrendLine(
            float(support[0][i]), float(support[1][i]), SUPPORT)
        assert fit_resistance_line(w) == indicators.TrendLine(
            float(resistance[0][i]), float(resistance[1][i]), RESISTANCE)
        verdict = evaluate_rule(rule, w)
        assert verdict == verdicts[i]
        x = extract_features(w, forecasts[i], [verdict])
        assert x.tobytes() == X[i].tobytes()
        assert score(gate, x) == batch_scores[i]


@HYPOTHESIS
@given(windows())
def test_one_origin_calls_equal_their_batch_rows(case):
    series, ends, length = case
    length = max(length, 5)
    ends = ends[ends >= length]
    if ends.size:
        rule = bottoming_tail_rule(min(length, 5))
        _assert_rows_match_one_origin(series, ends, length, _gate([rule]), rule)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_one_origin_calls_equal_their_rows_at_block_boundaries(n):
    length = 30
    series = make_series(np.random.default_rng(n), length + n)
    ends = np.arange(length, length + n)
    rule = bottoming_tail_rule(20)
    _assert_rows_match_one_origin(series, ends, length, _gate([rule], seed=n), rule)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_walk_forward_decides_like_one_origin_calls_across_blocks(n):
    lookback, horizon = 25, 3
    series = make_series(np.random.default_rng(100 + n), lookback - 1 + n + horizon)
    rule = bottoming_tail_rule(20)
    gate = _gate([rule], seed=n)
    cfg = EvalConfig(lookback=lookback, horizon=horizon, train_fraction=0.0,
                     required_rules=(rule.name,))
    records = walk_forward(series, drift_forecast, gate, [rule], cfg)
    assert len(records) == n
    for r in (records[i] for i in sorted({0, BLOCK - 1, BLOCK, n - 2, n - 1})):
        w = series.window(r.origin_index - lookback + 1, r.origin_index + 1)
        forecast = drift_forecast(w, horizon)
        verdicts = [evaluate_rule(rule, w)]
        s = score(gate, extract_features(w, forecast, verdicts))
        assert r.decision == decide(s, gate, verdicts, cfg.required_rules)
        assert r.verdicts == tuple(verdicts)


def _with_dojis(n: int, every: int) -> Series:
    rows = candle_rows(make_series(np.random.default_rng(5), n))
    for i in range(every - 1, n, every):
        price = rows[i].close
        rows[i] = rows[i]._replace(open=price, high=price, low=price)
    return series_from_rows("DOJI", rows, "epoch")


def test_doji_inside_a_block_warns_nothing_and_fails_fractions():
    # pytest runs with filterwarnings = error, so a division warning would fail here.
    series = _with_dojis(400, every=7)
    rule = bottoming_tail_rule(10)
    ends = np.arange(10, len(series) + 1)
    columns = predicate_columns(rule, series, ends, 10)
    doji = (series.highs[ends - 1] == series.lows[ends - 1])
    assert doji.sum() > 40
    fraction_kinds = (rule_engine.TAIL_MIN_FRACTION, rule_engine.BODY_UPPER_HALF, rule_engine.CLOSE_TOP_FRACTION)
    checked = 0
    for predicate, (measured, _, passed) in zip(rule.predicates, columns):
        if predicate.kind in fraction_kinds:
            assert not passed[doji].any() and (measured[doji] == 0.0).all()
            checked += 1
    assert checked == 3
    cfg = EvalConfig(lookback=12, horizon=2, train_fraction=0.5)
    gate = train_gate_on_series(series, drift_forecast, [rule], cfg)
    assert len(walk_forward(series, drift_forecast, gate, [rule], cfg)) > 0


def test_score_equal_to_threshold_executes():
    # Zero weights score exactly 0.5; the gate executes at score >= threshold.
    gate = GateModel((0.0,) * 7, 0.5, (0.0,) * 7, (1.0,) * 7, feature_names([]))
    series = make_series(np.random.default_rng(6), 60)
    cfg = EvalConfig(lookback=10, horizon=2, train_fraction=0.0)
    records = walk_forward(series, drift_forecast, gate, [], cfg)
    assert {r.decision.score for r in records} == {0.5}
    assert all(r.decision.executed for r in records)
    assert decide(0.5, gate, []).executed
    assert not decide(np.nextafter(0.5, 0.0), gate, []).executed


def _counting(name, fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_backtest_never_falls_back_to_one_origin_calls(monkeypatch):
    """A backtest (training, walk-forward, summary, trace) uses the block kernels
    and the table's columns: no one-origin calls, no per-row decisions or
    verdicts, and exactly one call per origin of a per-window forecaster."""
    one_origin = ("fit_support_line", "fit_resistance_line", "evaluate_rule", "extract_features",
                  "score", "decide", "gate_decision", "rule_verdicts")
    calls = []
    for module in (evaluation, forecaster, indicators, reliability_gate, rule_engine):
        for name in one_origin:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _counting(name, getattr(module, name), calls))
    origins = []

    def counting_forecaster(w, horizon):
        origins.append(w.end - 1)
        return drift_forecast(w, horizon)

    series = make_series(np.random.default_rng(7), 2_000)
    rule = bottoming_tail_rule()
    cfg = EvalConfig(lookback=110, horizon=7, train_fraction=0.7, required_rules=(rule.name,))
    gate = train_gate_on_series(series, counting_forecaster, [rule], cfg)
    table = walk_forward(series, counting_forecaster, gate, [rule], cfg)
    evaluation.summarize(table, "drift")
    "".join(evaluation.forecast_trace_chunks(table, series))
    train_origins, eval_origins = evaluation._origin_splits(series, cfg)
    assert calls == []
    assert origins == train_origins + eval_origins
    assert table.origins.tolist() == eval_origins
    table[0]  # a row read builds its decision and verdicts
    assert sorted(set(calls)) == ["gate_decision", "rule_verdicts"]


def _spy_on_one_window_forecasts(monkeypatch, calls):
    """Record every one-window forecaster call and every Forecast built."""
    for name in BASELINES:
        fn = getattr(forecaster, f"{name}_forecast")
        monkeypatch.setattr(forecaster, f"{name}_forecast", _counting(name, fn, calls))
        monkeypatch.setitem(BASELINES, name, _counting(name, fn, calls))
    for cls in (BlockForecaster, Baseline):
        monkeypatch.setattr(cls, "__call__", _counting("one window", cls.__call__, calls))
    monkeypatch.setattr(Forecast, "__post_init__", _counting("Forecast", Forecast.__post_init__, calls))
    from_checked = Forecast._from_checked.__func__
    monkeypatch.setattr(Forecast, "_from_checked", classmethod(_counting("Forecast", from_checked, calls)))


@pytest.mark.parametrize("model", ["naive", "drift", "linreg", "external"])
def test_cli_forecasters_make_no_one_window_calls_and_build_no_forecast(model, monkeypatch, tmp_path):
    """Training, walk-forward, summary and trace with a forecaster the CLI resolves
    run the kernels (or the external join) on columns."""
    series = make_series(np.random.default_rng(8), 1_500)
    rule = bottoming_tail_rule()
    cfg = EvalConfig(lookback=95, horizon=4, train_fraction=0.6)
    if model == "external":
        items = [(int(series.timestamps[o]), drift_forecast(series.window(o - 94, o + 1), 4))
                 for o in range(94, len(series))]
        path = tmp_path / "ext.csv"
        path.write_text(save_external_forecasts(items, series.timestamp_format))
        model = f"external:{path}"
    resolved = _resolve_forecaster(model, 0.8, series, cfg.horizon)
    calls = []
    _spy_on_one_window_forecasts(monkeypatch, calls)
    gate = train_gate_on_series(series, resolved, [rule], cfg)
    table = walk_forward(series, resolved, gate, [rule], cfg)
    evaluation.summarize(table, model)
    "".join(evaluation.forecast_trace_chunks(table, series))
    assert calls == []
    table[0]  # a row read builds its forecast
    assert calls == ["Forecast"]


def _table_bits(table):
    columns = (table.origins, table.predicted_up, table.realized_up, table.scores, table.rules_ok,
               table.forecasts.paths, table.forecasts.lower, table.forecasts.upper)
    return table.threshold, [c.tobytes() for c in columns]


@pytest.mark.parametrize("name", ["naive", "drift", "linreg"])
def test_module_baselines_take_the_block_path(name, monkeypatch):
    """naive_forecast, drift_forecast and linreg_forecast are Baselines: training and
    walk-forward with them make no one-window calls and give, bit for bit, the gate and
    table of the CLI's Baseline and of a plain callable that forecasts per origin."""
    baseline = getattr(forecaster, f"{name}_forecast")
    series = make_series(np.random.default_rng(10), 800)
    rule = bottoming_tail_rule()
    cfg = EvalConfig(lookback=95, horizon=4, train_fraction=0.6, required_rules=(rule.name,))
    origins = []

    def per_origin(w, horizon):
        origins.append(w.end - 1)
        return baseline(w, horizon)

    expected = []
    for other in (Baseline(KERNELS[name], DEFAULT_COVERAGE), per_origin):
        gate = train_gate_on_series(series, other, [rule], cfg)
        expected.append((model_to_json(gate), _table_bits(walk_forward(series, other, gate, [rule], cfg))))
    train_origins, eval_origins = evaluation._origin_splits(series, cfg)
    assert origins == train_origins + eval_origins
    calls = []
    _spy_on_one_window_forecasts(monkeypatch, calls)
    gate = train_gate_on_series(series, baseline, [rule], cfg)
    table = walk_forward(series, baseline, gate, [rule], cfg)
    assert calls == []
    assert [(model_to_json(gate), _table_bits(table))] * 2 == expected


def test_drift_forecast_at_a_coverage_is_its_batch_row():
    series = make_series(np.random.default_rng(11), 300)
    origins = np.arange(119, 300)
    batch = Baseline(KERNELS["drift"], 0.9).forecasts(series, origins, 120, 6)
    for i in (0, 90, len(origins) - 1):
        w = series.window(int(origins[i]) - 119, int(origins[i]) + 1)
        assert forecast_bits(replace(drift_forecast, coverage=0.9)(w, 6)) == forecast_bits(batch[i])
        assert forecast_bits(Baseline(KERNELS["drift"], 0.9)(w, 6)) == forecast_bits(batch[i])
    assert forecast_bits(drift_forecast(w, 6)) != forecast_bits(batch[-1])  # its own coverage is the default


def _assert_forecast_rows_match_one_window(series, origins, lookback, horizon, coverage, rows):
    """Each baseline's batch row i is the one-window forecast at origins[i], bit for bit."""
    for name, kernel in KERNELS.items():
        batch = Baseline(kernel, coverage).forecasts(series, origins, lookback, horizon)
        assert len(batch) == len(origins)
        for i in rows:
            w = series.window(int(origins[i]) - lookback + 1, int(origins[i]) + 1)
            one_window = replace(BASELINES[name], coverage=coverage)(w, horizon)
            assert forecast_bits(one_window) == forecast_bits(batch[i])


@HYPOTHESIS
@given(windows(), st.integers(1, 9), st.floats(0.01, 0.99))
def test_one_window_forecasts_equal_their_batch_rows(case, horizon, coverage):
    series, ends, length = case
    _assert_forecast_rows_match_one_window(series, ends - 1, length, horizon, coverage, range(len(ends)))


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("lookback", [2, 40])
def test_one_window_forecasts_equal_their_rows_at_block_boundaries(n, lookback):
    series = make_series(np.random.default_rng(n + lookback), lookback - 1 + n)
    origins = np.arange(lookback - 1, lookback - 1 + n)
    rows = sorted({0, BLOCK - 1, BLOCK, BLOCK + 1, n - 2, n - 1})
    _assert_forecast_rows_match_one_window(series, origins, lookback, 5, 0.9, rows)


@pytest.mark.parametrize("name", ["drift", "linreg"])
def test_trend_baselines_need_two_candles(name):
    series = make_series(np.random.default_rng(9), 10)
    message = f"^{name} forecast needs a window of at least 2 candles$"
    with pytest.raises(ValueError, match=message):
        BASELINES[name](series.window(4, 5), 3)
    with pytest.raises(ValueError, match=message):
        Baseline(KERNELS[name]).forecasts(series, np.arange(3, 6), 1, 3)
