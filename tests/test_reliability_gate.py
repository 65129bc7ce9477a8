import json

import numpy as np
import pytest

from candlegate.evaluation import EvalConfig, walk_forward
from candlegate.forecaster import Forecast, naive_forecast
from candlegate.reliability_gate import (
    FeatureError,
    GateModel,
    TrainingError,
    decide,
    extract_features,
    feature_names,
    feature_rows,
    log_loss_and_gradient,
    model_from_json,
    model_to_json,
    score,
    train,
)
from candlegate.rule_engine import RuleVerdict, TraceEntry

from conftest import make_series, series_from_rows


def _flat_series(n=20, price=100.0):
    rows = ((86400 * i, price, price, price, price, 1.0) for i in range(n))
    return series_from_rows("X", rows, "epoch")


def _verdict(name, passed):
    entry = TraceEntry("p", 1.0 if passed else 0.0, 0.5, passed)
    return RuleVerdict(rule=name, passed=passed, trace=(entry,))


def _model(weights, threshold=0.5, names=None):
    """A gate with these weights; a walk-forward passes the names of its rules' features."""
    dim = len(weights)
    return GateModel(
        weights=tuple(weights),
        threshold=threshold,
        feature_means=(0.0,) * dim,
        feature_stds=(1.0,) * dim,
        feature_names=tuple(f"f{i}" for i in range(dim)) if names is None else names,
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
    # A finite forecast whose relative move from a close of 0.5 overflows.
    series = _flat_series(price=0.5)
    w = series.window(0, 20)
    bad = Forecast((1.7e308,))
    with np.errstate(over="ignore"), pytest.raises(FeatureError, match="predicted_move"):
        extract_features(w, bad, [])


def test_feature_rows_name_the_first_non_finite_feature_of_the_first_faulty_row():
    """Row 0's volatility overflows (a close of 1e-300 then 1e300) while its predicted move is 0;
    row 1's predicted move overflows.  The earlier row is reported, not the earlier column."""
    closes = (0.5, 1e-300, 1e300, 0.5, 0.5, 0.5)
    series = series_from_rows("X", ((86400 * i, c, c, c, c, 1.0) for i, c in enumerate(closes)), "epoch")
    with np.errstate(all="ignore"), pytest.raises(FeatureError, match="'volatility'"):
        feature_rows(series, np.array([3, 6]), 3, np.array([1e300, 1.7e308]), np.zeros((2, 0), dtype=bool))


def _label_bits(series, path_end, horizon):
    """The gate's training labels (predicted direction realized) as the table's
    bit columns, for forecasts ending at path_end(origin) over lookback 2."""
    forecaster = lambda w, h: Forecast((path_end(w.end - 1),) * h)
    cfg = EvalConfig(lookback=2, horizon=horizon, train_fraction=0.0)
    table = walk_forward(series, forecaster, _model([0.0] * 7, names=feature_names([])), [], cfg)
    return table.origins.tolist(), (table.predicted_up == table.realized_up).tolist()


def test_meta_label_basic():
    closes = [100.0, 101.0, 102.0, 103.0, 100.0]
    rows = ((86400 * i, c, c + 1, c - 1, c, 1.0) for i, c in enumerate(closes))
    series = series_from_rows("X", rows, "epoch")
    up = lambda origin: 200.0   # predicts Up over horizon 2
    assert _label_bits(series, up, 2) == ([1, 2], [True, False])  # 101 -> 103, then 102 -> 100
    assert _label_bits(_flat_series(5), up, 2) == ([1, 2], [False, False])  # flat realizes Down by tie rule


def test_meta_label_enumerated_fixture():
    rng = np.random.default_rng(20)
    series = make_series(rng, 20)
    closes = series.closes.tolist()
    horizon = 3
    origins, labels = _label_bits(
        series, lambda origin: closes[origin] * (1.01 if origin % 2 == 0 else 0.99), horizon
    )
    assert origins == list(range(1, 20 - horizon))
    for origin, label in zip(origins, labels):
        predicted_up = origin % 2 == 0
        realized_up = closes[origin + horizon] > closes[origin]
        assert label == (predicted_up == realized_up)


def _separable_dataset(n=50):
    rng = np.random.default_rng(21)
    X, y = [], []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        X.append([rng.normal(2.0 if label else -2.0, 0.3), 1.0])
        y.append(label)
    return np.array(X), np.array(y)


def test_train_separates_linearly_separable_data():
    X, y = _separable_dataset()
    model = train(X, y)
    correct = sum(
        (score(model, x) >= 0.5) == bool(label) for x, label in zip(X, y)
    )
    assert correct == len(y)


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
    X, y = _separable_dataset()
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
    with pytest.raises(TrainingError, match="both labels"):
        train(np.ones((10, 2)), np.ones(10))


def test_train_rejects_empty():
    with pytest.raises(TrainingError, match="empty"):
        train(np.empty((0, 2)), [])
    with pytest.raises(TrainingError, match="shape"):
        train(np.ones((3, 2)), [0, 1])


def test_train_flags_non_finite_loss():
    X = np.array([[float("nan"), 1.0], [1.0, 1.0]])
    with pytest.raises(TrainingError, match="non-finite"):
        train(X, [0, 1])


def test_train_overflow_is_a_training_error():
    """The logits overflow at epoch 1; that is the typed error, not a floating-point warning."""
    with pytest.raises(TrainingError, match="non-finite logits at epoch 1$"):
        train([[1e200, 0], [1e200, 1], [1e200, 2]], [0, 1, 1])


def test_train_rejects_a_feature_whose_mean_or_std_overflows():
    """A spread or a sum beyond float64 is a TrainingError naming the feature, not a warning."""
    with pytest.raises(TrainingError, match="^feature 'f0' has a non-finite mean or std$"):
        train([[1e200, 0], [-1e200, 1], [1e200, 2]], [0, 1, 1])
    with pytest.raises(TrainingError, match="^feature 'close' has a non-finite mean or std$"):
        train([[0, 1e308], [1, 1e308]], [0, 1], names=("bias", "close"))


def test_decide_score_only():
    model = _model([1.0], threshold=0.5)
    decision = decide(0.8, model, [], [])
    assert decision.executed
    assert decision.score == 0.8
    assert decision.reasons == ("score 0.80 >= threshold 0.50",)


def test_decide_rule_veto():
    model = _model([1.0], threshold=0.5)
    failed = _verdict("bottoming_tail_candle", False)
    decision = decide(0.8, model, [failed], ["bottoming_tail_candle"])
    assert not decision.executed
    assert decision.rules == (failed,)
    assert decision.reasons == (
        "score 0.80 >= threshold 0.50",
        "rule bottoming_tail_candle: failed (p)",
    )


def test_decide_statistical_veto():
    model = _model([1.0], threshold=0.5)
    passed = _verdict("r", True)
    decision = decide(0.4, model, [passed], ["r"])
    assert not decision.executed
    assert decision.reasons == ("score 0.40 < threshold 0.50", "rule r: passed")


def test_decide_keeps_required_verdicts_in_required_order():
    model = _model([1.0], threshold=0.5)
    a, b, c = _verdict("a", True), _verdict("b", False), _verdict("c", True)
    decision = decide(0.6, model, [a, b, c], ["c", "a"])
    assert decision.executed
    assert (decision.threshold, decision.rules) == (0.5, (c, a))
    assert decision.reasons == ("score 0.60 >= threshold 0.50", "rule c: passed", "rule a: passed")


def test_decide_missing_required_rule():
    model = _model([1.0])
    with pytest.raises(ValueError, match="required rule"):
        decide(0.9, model, [], ["nope"])


def test_decide_refuses_a_rule_required_twice():
    """Its reason line would otherwise be given twice."""
    model = _model([1.0])
    with pytest.raises(ValueError, match="^required rule 'r' is given more than once$"):
        decide(0.9, model, [_verdict("r", True)], ["r", "r"])


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
    model = train(*_separable_dataset(), names=("x", "bias"))
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
    model = train(*_separable_dataset())
    payload = json.loads(model_to_json(model))
    payload["format"] = 99
    with pytest.raises(ValueError, match="format"):
        model_from_json(json.dumps(payload))
