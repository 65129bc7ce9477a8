"""Reliability gate (M2): scores the primary forecast and decides execution.

The gate is a logistic model over a fixed-order feature vector, trained with
full-batch gradient descent on log-loss under a fixed schedule (EPOCHS steps
of size LEARNING_RATE from zero weights).  A forecast is executed only when the
reliability score clears the threshold AND every required symbolic rule passed,
so both the statistical and the logical leg can veto, and every decision
carries its reasons.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .forecaster import Forecast, Side, direction_of
from .indicators import RESISTANCE, SUPPORT, envelope_lines, volatilities, window_index
from .market_data import Series, Window
from .rule_engine import RuleVerdict

MODEL_FORMAT = 2
_NUMBER = (int, float)

EPOCHS = 500
LEARNING_RATE = 0.1

BASE_FEATURE_NAMES = (
    "predicted_move",
    "volatility",
    "support_slope",
    "resistance_slope",
    "dist_to_support",
    "dist_to_resistance",
)


class FeatureError(ValueError):
    """A feature component is NaN or infinite."""


class TrainingError(ValueError):
    """The gate cannot be trained on the given dataset/configuration."""


def feature_names(rule_names: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """Names of the feature vector entries for a given rule configuration."""
    return BASE_FEATURE_NAMES + tuple(f"rule_{name}" for name in rule_names) + ("bias",)


def feature_rows(
    series: Series, ends: np.ndarray, length: int, predicted: np.ndarray, passed: np.ndarray
) -> np.ndarray:
    """Deterministic fixed-order feature rows, one per window ``[end - length, end)``.

    ``predicted`` holds each forecast's final predicted close and ``passed``
    the (N, rules) pass bits of the rule verdicts.
    """
    index = window_index(ends, length)
    closes, lows, highs = series.closes[index], series.lows[index], series.highs[index]
    last = closes[:, -1]
    support_slopes, support_intercepts = envelope_lines(lows, SUPPORT)
    resistance_slopes, resistance_intercepts = envelope_lines(highs, RESISTANCE)
    X = np.empty((len(ends), len(BASE_FEATURE_NAMES) + passed.shape[1] + 1))
    X[:, 0] = (predicted - last) / last
    X[:, 1] = volatilities(closes)
    X[:, 2] = support_slopes / last
    X[:, 3] = resistance_slopes / last
    X[:, 4] = (last - (support_intercepts + support_slopes * (length - 1))) / last
    X[:, 5] = ((resistance_intercepts + resistance_slopes * (length - 1)) - last) / last
    X[:, 6:-1] = passed
    X[:, -1] = 1.0
    finite = np.isfinite(X)
    if not finite.all():
        first_bad_row = finite[np.argmin(finite.all(axis=1))]
        raise FeatureError(f"non-finite feature {BASE_FEATURE_NAMES[np.argmin(first_bad_row)]!r}")
    return X


def extract_features(w: Window, forecast: Forecast, verdicts: list[RuleVerdict]) -> np.ndarray:
    """Deterministic fixed-order feature vector for one forecast origin."""
    passed = np.array([[v.passed for v in verdicts]], dtype=bool)
    return feature_rows(w.series, np.array([w.end]), len(w), np.array([forecast.path[-1]]), passed)[0]


def meta_label(forecast: Forecast, realized: Series) -> int:
    """1 if the forecast's directional call matched what the series then did."""
    origin = forecast.origin_index
    end = origin + forecast.horizon
    if origin < 0 or end >= len(realized):
        raise ValueError(
            f"series of length {len(realized)} does not cover origin {origin} "
            f"plus horizon {forecast.horizon}"
        )
    origin_close = float(realized.closes[origin])
    realized_side = Side.UP if realized.closes[end] > origin_close else Side.DOWN
    return int(direction_of(forecast, origin_close) == realized_side)


@dataclass(frozen=True)
class GateModel:
    weights: tuple[float, ...]
    threshold: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        # Inclusive bounds so threshold sweeps can pin the gate fully open/closed.
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        lengths = tuple(map(len, (self.weights, self.feature_means, self.feature_stds,
                                  self.feature_names)))
        if len(set(lengths)) != 1:
            raise ValueError(
                f"weights, feature means, feature stds and feature names differ in length {lengths}"
            )
        if not all(np.isfinite(self.weights)):
            raise ValueError("model weights must be finite")
        if not all(np.isfinite(self.feature_means)):
            raise ValueError("feature means must be finite")
        # A zero std would turn every score into NaN, and NaN never clears the threshold.
        if not all(np.isfinite(s) and s > 0 for s in self.feature_stds):
            raise ValueError("feature stds must be finite and > 0")

    @property
    def dim(self) -> int:
        return len(self.weights)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable on both tails: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def log_loss_and_gradient(weights: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean logistic log-loss and its gradient for label vector y in {0,1}."""
    z = X @ weights
    # softplus(z) - y*z, with softplus computed without overflow
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    grad = X.T @ (_sigmoid(z) - y) / len(y)
    return loss, grad


def _standardize(X: np.ndarray):
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    constant = stds == 0.0
    # Constant features (e.g. the bias term) pass through unchanged.
    means = np.where(constant, 0.0, means)
    stds = np.where(constant, 1.0, stds)
    return (X - means) / stds, means, stds


def train(
    dataset,
    threshold: float = 0.5,
    names: tuple[str, ...] | None = None,
) -> GateModel:
    """Fit the logistic gate by EPOCHS full-batch gradient descent steps of
    size LEARNING_RATE from zero weights, so the fit is deterministic."""
    if not dataset:
        raise TrainingError("empty training dataset")
    X = np.asarray([np.asarray(x, dtype=np.float64) for x, _ in dataset])
    y = np.asarray([float(label) for _, label in dataset])
    classes = set(y.tolist())
    if classes != {0.0, 1.0}:
        raise TrainingError(f"need both labels present, got classes {sorted(classes)}")
    if names is not None and len(names) != X.shape[1]:
        raise TrainingError(f"{len(names)} feature names for {X.shape[1]} features")

    X_std, means, stds = _standardize(X)
    weights = np.zeros(X.shape[1])
    for epoch in range(EPOCHS):
        loss, grad = log_loss_and_gradient(weights, X_std, y)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        weights -= LEARNING_RATE * grad

    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    return GateModel(
        weights=tuple(float(v) for v in weights),
        threshold=threshold,
        feature_means=tuple(float(v) for v in means),
        feature_stds=tuple(float(v) for v in stds),
        feature_names=tuple(names),
    )


def scores(model: GateModel, X: np.ndarray) -> np.ndarray:
    """Reliability estimates in [0, 1], one per feature row.

    Each row is reduced on its own (no matrix product), so a row's score does
    not depend on how many rows are scored with it.
    """
    if X.shape[1:] != (model.dim,):
        raise ValueError(f"feature vector of shape {X.shape[1:]}, model expects ({model.dim},)")
    x_std = (X - np.asarray(model.feature_means)) / np.asarray(model.feature_stds)
    return _sigmoid(np.add.reduce(x_std * np.asarray(model.weights), axis=1))


def score(model: GateModel, x: np.ndarray) -> float:
    """Reliability estimate in [0, 1] for one feature vector."""
    return float(scores(model, np.asarray(x, dtype=np.float64)[None])[0])


@dataclass(frozen=True)
class GateDecision:
    executed: bool
    score: float
    reasons: tuple[str, ...]


def decide(
    score_value: float,
    model: GateModel,
    verdicts: list[RuleVerdict],
    required_rules: list[str] | tuple[str, ...] = (),
) -> GateDecision:
    """Combine the statistical score with rule verdicts into execute/abstain."""
    by_name = {v.rule: v for v in verdicts}
    missing = [name for name in required_rules if name not in by_name]
    if missing:
        raise ValueError(f"required rule(s) {missing} not among verdicts")

    reasons = []
    score_ok = score_value >= model.threshold
    cmp = ">=" if score_ok else "<"
    reasons.append(f"score {score_value:.2f} {cmp} threshold {model.threshold:.2f}")

    rules_ok = True
    for name in required_rules:
        verdict = by_name[name]
        if verdict.passed:
            reasons.append(f"rule {name}: passed")
        else:
            rules_ok = False
            failed = next(e.predicate for e in verdict.trace if not e.passed)
            reasons.append(f"rule {name}: failed ({failed})")

    return GateDecision(executed=score_ok and rules_ok, score=score_value, reasons=tuple(reasons))


def model_to_json(model: GateModel) -> str:
    return json.dumps({"format": MODEL_FORMAT, **asdict(model)}, indent=2) + "\n"


def _has_kind(value, kind) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, kind) and not isinstance(value, bool)


def _json_list(payload: dict, key: str, kind, noun: str) -> tuple:
    values = payload[key]
    if not (isinstance(values, list) and all(_has_kind(v, kind) for v in values)):
        raise ValueError(f"gate model {key!r} must be a list of {noun}")
    return tuple(values)


def model_from_json(text: str | bytes) -> GateModel:
    """Load a gate model; a malformed file raises ValueError naming the fault."""
    payload = json.loads(text)
    fmt = payload.get("format") if isinstance(payload, dict) else None
    # Format 1 files also carry a "config" block with the training schedule;
    # their scoring fields are the same, so they still load.
    if fmt not in (1, MODEL_FORMAT):
        raise ValueError(f"unsupported gate model format {fmt!r}")
    missing = [f.name for f in fields(GateModel) if f.name not in payload]
    if missing:
        raise ValueError(f"gate model JSON is missing {', '.join(missing)}")
    threshold = payload["threshold"]
    if not _has_kind(threshold, _NUMBER):
        raise ValueError(f"gate model 'threshold' must be a number, got {threshold!r}")
    return GateModel(
        weights=_json_list(payload, "weights", _NUMBER, "numbers"),
        threshold=threshold,
        feature_means=_json_list(payload, "feature_means", _NUMBER, "numbers"),
        feature_stds=_json_list(payload, "feature_stds", _NUMBER, "numbers"),
        feature_names=_json_list(payload, "feature_names", str, "strings"),
    )
