"""Reliability gate (M2): scores the primary forecast and decides execution.

The gate is a logistic model over a fixed-order feature vector, trained with
full-batch gradient descent on log-loss under a fixed schedule (EPOCHS steps
of size LEARNING_RATE from zero weights).  A forecast is executed only when the
reliability score clears the threshold AND every required symbolic rule passed,
so both the statistical and the logical leg can veto.  Every decision keeps
that evidence and renders its reasons from it on read.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .forecaster import Forecast
from .indicators import RESISTANCE, SUPPORT, envelope_lines, volatilities, window_index
from .market_data import Series, Window, first_fault
from .rule_engine import RuleVerdict, required_positions

MODEL_FORMAT = 2
_NUMBER = (int, float)

DEFAULT_THRESHOLD = 0.5
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
    if not np.isfinite(X).all():
        _, name = first_fault((feature, ~np.isfinite(X[:, j])) for j, feature in enumerate(BASE_FEATURE_NAMES))
        raise FeatureError(f"non-finite feature {name!r}")
    return X


def extract_features(w: Window, forecast: Forecast, verdicts: list[RuleVerdict]) -> np.ndarray:
    """Deterministic fixed-order feature vector for one forecast origin."""
    passed = np.array([[v.passed for v in verdicts]], dtype=bool)
    return feature_rows(w.series, np.array([w.end]), len(w), np.array([forecast.path[-1]]), passed)[0]


def check_threshold(threshold: float) -> None:
    # Inclusive bounds so threshold sweeps can pin the gate fully open/closed.
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class GateModel:
    weights: tuple[float, ...]
    threshold: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        check_threshold(self.threshold)
        lengths = tuple(map(len, (self.weights, self.feature_means, self.feature_stds,
                                  self.feature_names)))
        if len(set(lengths)) != 1:
            raise ValueError(
                f"weights, feature means, feature stds and feature names differ in length {lengths}"
            )
        # abs(v) <= max fails NaN, the infinities and an int beyond float range alike.
        if not all(abs(v) <= sys.float_info.max for v in self.weights):
            raise ValueError("model weights must be finite")
        if not all(abs(v) <= sys.float_info.max for v in self.feature_means):
            raise ValueError("feature means must be finite")
        # A zero std would turn every score into NaN, and NaN never clears the threshold.
        if not all(0 < s <= sys.float_info.max for s in self.feature_stds):
            raise ValueError("feature stds must be finite and > 0")

    @property
    def dim(self) -> int:
        return len(self.weights)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable on both tails: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logits_and_gradient(weights: np.ndarray, X: np.ndarray, y: np.ndarray):
    z = X @ weights  # the logits, then the mean log-loss gradient for labels y in {0,1}
    return z, X.T @ (_sigmoid(z) - y) / len(y)


def log_loss_and_gradient(weights: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean logistic log-loss and its gradient for label vector y in {0,1}."""
    z, grad = _logits_and_gradient(weights, X, y)
    # softplus(z) - y*z, with softplus computed without overflow
    return float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z)), grad


def _standardize(X: np.ndarray, names: tuple[str, ...]):
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.mean(axis=0)
        stds = X.std(axis=0)
    nonfinite = ~(np.isfinite(means) & np.isfinite(stds))
    if nonfinite.any():
        raise TrainingError(f"feature {names[nonfinite.argmax()]!r} has a non-finite mean or std")
    constant = stds == 0.0
    # Constant features (e.g. the bias term) pass through unchanged.
    means = np.where(constant, 0.0, means)
    stds = np.where(constant, 1.0, stds)
    return (X - means) / stds, means, stds


def train(X, y, names: tuple[str, ...] | None = None) -> GateModel:
    """Fit the logistic gate to feature rows X and 0/1 labels y by EPOCHS full-batch
    gradient descent steps of size LEARNING_RATE from zero weights, so the fit is deterministic."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not len(y):
        raise TrainingError("empty training dataset")
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError(f"feature rows of shape {X.shape} for {len(y)} labels")
    classes = set(y.tolist())
    if classes != {0.0, 1.0}:
        raise TrainingError(f"need both labels present, got classes {sorted(classes)}")
    if names is not None and len(names) != X.shape[1]:
        raise TrainingError(f"{len(names)} feature names for {X.shape[1]} features")

    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    X_std, means, stds = _standardize(X, names)
    weights = np.zeros(X.shape[1])
    # The loss is finite exactly when the logits are; an overflow is a TrainingError.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(EPOCHS):
            z, grad = _logits_and_gradient(weights, X_std, y)
            if not np.isfinite(z).all():
                raise TrainingError(f"non-finite logits at epoch {epoch}")
            weights -= LEARNING_RATE * grad

    return GateModel(
        weights=tuple(float(v) for v in weights),
        threshold=DEFAULT_THRESHOLD,
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


@dataclass(frozen=True, slots=True)
class GateDecision:
    """Execute or abstain, with its evidence: score, threshold, required-rule verdicts."""

    executed: bool
    score: float
    threshold: float
    rules: tuple[RuleVerdict, ...]

    @property
    def reasons(self) -> tuple[str, ...]:
        """One line for the score, then one per required rule, in the order required."""
        cmp = ">=" if self.score >= self.threshold else "<"
        lines = [f"score {self.score:.2f} {cmp} threshold {self.threshold:.2f}"]
        for v in self.rules:
            failed = [e.predicate for e in v.trace if not e.passed]
            lines.append(f"rule {v.rule}: " + ("passed" if v.passed else f"failed ({failed[0]})"))
        return tuple(lines)


def executes(score_values, threshold: float, rules_ok):
    """The execute policy: the score clears the threshold and every required rule passed."""
    return (score_values >= threshold) & rules_ok


def gate_decision(score_value: float, threshold: float, rules: tuple[RuleVerdict, ...]) -> GateDecision:
    """Execute or abstain by the execute policy, keeping the evidence."""
    executed = bool(executes(score_value, threshold, all(v.passed for v in rules)))
    return GateDecision(executed, score_value, threshold, rules)


def decide(
    score_value: float,
    model: GateModel,
    verdicts: list[RuleVerdict],
    required_rules: list[str] | tuple[str, ...] = (),
) -> GateDecision:
    """Combine the statistical score with rule verdicts into execute/abstain."""
    positions = required_positions([v.rule for v in verdicts], required_rules)
    return gate_decision(score_value, model.threshold, tuple(verdicts[p] for p in positions))


def model_to_json(model: GateModel) -> str:
    return json.dumps({"format": MODEL_FORMAT, **asdict(model)}, indent=2) + "\n"


def _has_kind(value, kind) -> bool:
    """isinstance(value, kind) for a value loaded from JSON.  JSON true/false load as
    bool, which Python counts as an int, so they are never numbers."""
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
