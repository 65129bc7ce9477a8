import json

import numpy as np
import pytest

from candlegate.forecaster import Forecast, naive_forecast
from candlegate.market_data import Series
from candlegate.reliability_gate import (
    FeatureError,
    GateModel,
    TrainingError,
    decide,
    extract_features,
    feature_names,
    log_loss_and_gradient,
    meta_label,
    model_from_json,
    model_to_json,
    score,
    train,
)
from candlegate.rule_engine import Predicate, Rule, RuleVerdict, TraceEntry, evaluate_rule

from conftest import make_series, make_window


def _flat_series(n=20, price=100.0):
    rows = ((86400 * i, price, price, price, price, 1.0) for i in range(n))
    return Series.from_rows("X", rows, "epoch")


def _verdict(name, passed):
    entry = TraceEntry("p", 1.0 if passed else 0.0, 0.5, passed)
    return RuleVerdict(rule=name, passed=passed, trace=(entry,))


def _model(weights, threshold=0.5):
    dim = len(weights)
    return GateModel(
        weights=tuple(weights),
        threshold=threshold,
        feature_means=(0.0,) * dim,
        feature_stds=(1.0,) * dim,
        feature_names=tuple(f"f{i}" for i in range(dim)),
    )


def test_extract_features_flat_window():
    series = _flat_series()
    w = series.window(0, 20)
    forecast = naive_forecast(w, horizon=3)
    verdicts = [_verdict("a", True), _verdict("b", False)]
    x = extract_features(w, forecast, verdicts)
    assert len(x) == 7 + len(verdicts)  # 6 base + rule bits + bias
    assert x[0] == 0.0          # predicted move
    assert x[1] == 0.0          # volatility
    assert x[6] == 1.0 and x[7] == 0.0   # rule bits in verdict order
    assert x[-1] == 1.0         # bias


def test_feature_vector_length_matches_configuration():
    series = _flat_series()
    w = series.window(0, 20)
    forecast = naive_forecast(w, horizon=3)
    for n_rules in range(4):
        verdicts = [_verdict(f"r{i}", True) for i in range(n_rules)]
        x = extract_features(w, forecast, verdicts)
        names = feature_names([v.rule for v in verdicts])
        assert len(x) == len(names) == 7 + n_rules


def test_extract_features_rejects_non_finite():
    series = _flat_series()
    w = series.window(0, 20)
    bad = Forecast(w.end - 1, (float("inf"),))
    with pytest.raises(FeatureError, match="predicted_move"):
        extract_features(w, bad, [])


def test_meta_label_basic():
    closes = [100.0, 101.0, 102.0, 103.0, 100.0]
    rows = ((86400 * i, c, c + 1, c - 1, c, 1.0) for i, c in enumerate(closes))
    series = Series.from_rows("X", rows, "epoch")
    up = Forecast(0, (200.0, 200.0))     # predicts Up over horizon 2
    assert meta_label(up, series) == 1   # close rises 100 -> 102
    flat_series = _flat_series(5)
    up_flat = Forecast(0, (200.0, 200.0))
    assert meta_label(up_flat, flat_series) == 0  # flat realizes Down by tie rule


def test_meta_label_requires_future_data():
    series = _flat_series(5)
    with pytest.raises(ValueError, match="horizon"):
        meta_label(Forecast(3, (1.0, 1.0)), series)


def test_meta_label_enumerated_fixture():
    rng = np.random.default_rng(20)
    series = make_series(rng, 20)
    closes = series.closes.tolist()
    horizon = 3
    for origin in range(0, 20 - horizon):
        predicted_up = origin % 2 == 0
        path_end = closes[origin] * (1.01 if predicted_up else 0.99)
        forecast = Forecast(origin, (path_end,) * horizon)
        realized_up = closes[origin + horizon] > closes[origin]
        expected = 1 if (predicted_up == realized_up) else 0
        assert meta_label(forecast, series) == expected


def _separable_dataset(n=50):
    rng = np.random.default_rng(21)
    dataset = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        x0 = rng.normal(2.0 if label else -2.0, 0.3)
        dataset.append((np.array([x0, 1.0]), label))
    return dataset


def test_train_separates_linearly_separable_data():
    dataset = _separable_dataset()
    model = train(dataset)
    correct = sum(
        (score(model, x) >= 0.5) == bool(y) for x, y in dataset
    )
    assert correct == len(dataset)


def test_zero_weights_score_half():
    model = _model([0.0, 0.0, 0.0])
    rng = np.random.default_rng(22)
    for _ in range(10):
        assert score(model, rng.normal(size=3)) == 0.5


def test_single_positive_weight_saturates():
    model = _model([10.0])
    assert score(model, np.array([1.0])) > 0.999


def test_score_monotone_in_positive_weight_feature():
    model = _model([1.5, 0.7])
    xs = np.linspace(-3, 3, 15)
    scores = [score(model, np.array([x, 0.3])) for x in xs]
    assert all(a < b for a, b in zip(scores, scores[1:]))


def test_score_dimension_mismatch():
    model = _model([1.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        score(model, np.array([1.0, 2.0, 3.0]))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, d = 12, 4
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        _, grad = log_loss_and_gradient(w, X, y)
        fd = np.empty(d)
        eps = 1e-6
        for i in range(d):
            probe = np.zeros(d)
            probe[i] = eps
            lp, _ = log_loss_and_gradient(w + probe, X, y)
            lm, _ = log_loss_and_gradient(w - probe, X, y)
            fd[i] = (lp - lm) / (2 * eps)
        assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_training_loss_non_increasing_at_small_lr():
    dataset = _separable_dataset()
    X = np.array([x for x, _ in dataset])
    y = np.array([float(l) for _, l in dataset])
    means, stds = X.mean(axis=0), X.std(axis=0)
    stds[stds == 0.0] = 1.0
    means[X.std(axis=0) == 0.0] = 0.0
    Xs = (X - means) / stds
    w = np.zeros(X.shape[1])
    losses = []
    for _ in range(200):
        loss, grad = log_loss_and_gradient(w, Xs, y)
        losses.append(loss)
        w -= 0.01 * grad
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


def test_train_rejects_single_class():
    dataset = [(np.array([1.0, 1.0]), 1) for _ in range(10)]
    with pytest.raises(TrainingError, match="both labels"):
        train(dataset)


def test_train_rejects_empty():
    with pytest.raises(TrainingError, match="empty"):
        train([])


def test_train_flags_non_finite_loss():
    dataset = [
        (np.array([float("nan"), 1.0]), 0),
        (np.array([1.0, 1.0]), 1),
    ]
    with pytest.raises(TrainingError, match="non-finite"):
        train(dataset)


def test_decide_score_only():
    model = _model([1.0], threshold=0.5)
    decision = decide(0.8, model, [], [])
    assert decision.executed
    assert decision.score == 0.8
    assert any("0.80" in r and "0.50" in r for r in decision.reasons)


def test_decide_rule_veto():
    model = _model([1.0], threshold=0.5)
    failed = _verdict("bottoming_tail_candle", False)
    decision = decide(0.8, model, [failed], ["bottoming_tail_candle"])
    assert not decision.executed
    assert any("bottoming_tail_candle" in r and "p" in r for r in decision.reasons)


def test_decide_statistical_veto():
    model = _model([1.0], threshold=0.5)
    passed = _verdict("r", True)
    decision = decide(0.4, model, [passed], ["r"])
    assert not decision.executed
    assert any("<" in r for r in decision.reasons)
    assert decision.reasons  # abstentions carry reasons too


def test_decide_missing_required_rule():
    model = _model([1.0])
    with pytest.raises(ValueError, match="required rule"):
        decide(0.9, model, [], ["nope"])


def test_decide_is_pure():
    model = _model([1.0], threshold=0.5)
    verdicts = [_verdict("r", True)]
    d1 = decide(0.7, model, verdicts, ["r"])
    d2 = decide(0.7, model, verdicts, ["r"])
    assert d1 == d2


def test_raising_threshold_never_enables_execution():
    rng = np.random.default_rng(24)
    verdicts = [_verdict("r", True)]
    for _ in range(100):
        s = float(rng.uniform(0, 1))
        t1, t2 = sorted(rng.uniform(0, 1, size=2))
        lo = decide(s, _model([1.0], threshold=float(t1)), verdicts, ["r"])
        hi = decide(s, _model([1.0], threshold=float(t2)), verdicts, ["r"])
        if hi.executed:
            assert lo.executed


def test_model_json_roundtrip():
    dataset = _separable_dataset()
    model = train(dataset, names=("x", "bias"))
    text = model_to_json(model)
    payload = json.loads(text)
    assert payload["format"] == 2
    assert model_from_json(text) == model


FORMAT_1_GATE = """{
  "format": 1,
  "weights": [1.5, -0.25],
  "threshold": 0.6,
  "feature_means": [0.5, 0.0],
  "feature_stds": [2.0, 1.0],
  "feature_names": ["x", "bias"],
  "config": {
    "epochs": 500,
    "learning_rate": 0.1,
    "seed": 0
  }
}
"""


def test_model_json_format_1_still_loads():
    loaded = model_from_json(FORMAT_1_GATE)
    expected = GateModel(
        weights=(1.5, -0.25),
        threshold=0.6,
        feature_means=(0.5, 0.0),
        feature_stds=(2.0, 1.0),
        feature_names=("x", "bias"),
    )
    assert loaded == expected
    for x0 in (-3.0, 0.5, 2.0):
        x = np.array([x0, 1.0])
        assert score(loaded, x) == score(expected, x)
    assert model_from_json(model_to_json(loaded)) == expected


def test_model_json_rejects_unknown_format():
    dataset = _separable_dataset()
    model = train(dataset)
    payload = json.loads(model_to_json(model))
    payload["format"] = 99
    with pytest.raises(ValueError, match="format"):
        model_from_json(json.dumps(payload))
