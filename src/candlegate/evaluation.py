"""Walk-forward backtest of the forecaster plus gate, and the metric suite.

The protocol is strictly chronological: the gate is trained once on the
earliest fraction of forecast origins (minus an embargo of one horizon so no
training label peeks into the evaluation segment), then every evaluation
origin produces one record: forecast, rule verdicts, features, gate decision,
and the realized direction over the same horizon.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .forecaster import Forecast, Side, direction_of, side_of
from .indicators import blocks
from .market_data import Series, format_timestamp
from .reliability_gate import (
    GateDecision,
    GateModel,
    TrainingError,
    decide,
    feature_names,
    feature_rows,
    gate_decision,
    meta_label,
    scores,
    train,
)
from .rule_engine import Rule, RuleVerdict, predicate_columns, rule_passed, rule_verdicts

REPORT_CSV_HEADER = "model,side,accuracy,precision,recall,f1,execution_rate"
TRACE_CSV_HEADER = "origin_timestamp,step,predicted,lower,upper,actual,executed"
UNDEFINED_MARK = "—"


@dataclass(frozen=True)
class EvalConfig:
    lookback: int = 110
    horizon: int = 7
    stride: int = 1
    train_fraction: float = 0.7
    threshold: float = 0.5
    required_rules: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lookback < 2 or self.horizon < 1 or self.stride < 1:
            raise ValueError("lookback >= 2, horizon >= 1 and stride >= 1 required")
        if not (0.0 <= self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in [0, 1)")


@dataclass(frozen=True)
class EvalRecord:
    origin_index: int
    predicted: Side
    realized: Side
    decision: GateDecision
    forecast: Forecast
    verdicts: tuple[RuleVerdict, ...]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsRow:
    model: str
    side: str
    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    execution_rate: float | None


def _origin_splits(series: Series, cfg: EvalConfig):
    """All eligible origins, split into embargoed train and strided eval lists."""
    first = cfg.lookback - 1
    last = len(series) - 1 - cfg.horizon
    origins = list(range(first, last + 1))
    if not origins:
        raise ValueError(
            f"series of length {len(series)} too short for lookback {cfg.lookback} "
            f"and horizon {cfg.horizon}"
        )
    n_train = int(len(origins) * cfg.train_fraction)
    eval_origins = origins[n_train:][:: cfg.stride]
    if not eval_origins:
        raise ValueError("no evaluation origins left after the training split")
    # Embargo: a training label at origin t is realized at t + horizon, which
    # must not postdate the first evaluation decision.
    train_origins = [t for t in origins[:n_train] if t + cfg.horizon <= eval_origins[0]]
    return train_origins, eval_origins


def _block_inputs(series: Series, origins: list[int], forecaster, rules: list[Rule], cfg: EvalConfig):
    """Forecasts (one forecaster call per origin), per-rule predicate columns
    and feature rows for one block of origins."""
    forecasts = [
        forecaster(series.window(origin - cfg.lookback + 1, origin + 1), cfg.horizon)
        for origin in origins
    ]
    ends = np.asarray(origins) + 1
    columns = [predicate_columns(rule, series, ends, cfg.lookback) for rule in rules]
    passed = np.array([rule_passed(c) for c in columns], dtype=bool).reshape(len(rules), len(ends)).T
    predicted = np.array([forecast.path[-1] for forecast in forecasts])
    return forecasts, columns, feature_rows(series, ends, cfg.lookback, predicted, passed)


def train_gate_on_series(series: Series, forecaster, rules: list[Rule], cfg: EvalConfig) -> GateModel:
    """Fit the gate on the embargoed training segment of the walk-forward split."""
    train_origins, _ = _origin_splits(series, cfg)
    if not train_origins:
        raise TrainingError("training segment is empty; lower train_fraction or add data")
    dataset = []
    for block in blocks(train_origins):
        forecasts, _, X = _block_inputs(series, block, forecaster, rules, cfg)
        dataset.extend(zip(X, (meta_label(forecast, series) for forecast in forecasts)))
    names = feature_names([rule.name for rule in rules])
    return train(dataset, threshold=cfg.threshold, names=names)


def walk_forward(
    series: Series,
    forecaster,
    gate: GateModel | None,
    rules: list[Rule],
    cfg: EvalConfig,
) -> list[EvalRecord]:
    """Chronological evaluation records over the evaluation segment.

    With gate=None the gate is first trained on the training segment; pass a
    pre-trained model to evaluate with train_fraction 0.
    """
    _, eval_origins = _origin_splits(series, cfg)
    if gate is None:
        gate = train_gate_on_series(series, forecaster, rules, cfg)

    records = []
    for block in blocks(eval_origins):
        forecasts, columns, X = _block_inputs(series, block, forecaster, rules, cfg)
        per_rule = [rule_verdicts(rule, c) for rule, c in zip(rules, columns)]
        verdicts = list(zip(*per_rule)) if rules else [()] * len(block)
        for origin, forecast, s, v in zip(block, forecasts, scores(gate, X).tolist(), verdicts):
            origin_close = float(series.closes[origin])
            records.append(
                EvalRecord(
                    origin_index=origin,
                    predicted=direction_of(forecast, origin_close),
                    realized=side_of(float(series.closes[origin + cfg.horizon]), origin_close),
                    decision=decide(s, gate, list(v), cfg.required_rules),
                    forecast=forecast,
                    verdicts=v,
                )
            )
    return records


def apply_threshold(records: list[EvalRecord], gate: GateModel, threshold: float) -> list[EvalRecord]:
    """Re-gate existing records at a different threshold from each record's
    own score and required-rule verdicts, so rule vetoes carry over."""
    threshold = replace(gate, threshold=threshold).threshold  # validated by GateModel
    return [
        replace(r, decision=gate_decision(r.decision.score, threshold, r.decision.rules))
        for r in records
    ]


def confusion(records: list[EvalRecord], positive: Side, gated: bool) -> ConfusionMatrix:
    """Counts relative to the designated positive side; gated keeps executed only."""
    tp = fp = tn = fn = 0
    for r in records:
        if gated and not r.decision.executed:
            continue
        predicted_positive = r.predicted == positive
        realized_positive = r.realized == positive
        if predicted_positive and realized_positive:
            tp += 1
        elif predicted_positive and not realized_positive:
            fp += 1
        elif not predicted_positive and realized_positive:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def f1_score(precision: float | None, recall: float | None) -> float | None:
    if precision is None or recall is None or precision + recall == 0.0:
        return None
    return 2.0 * precision * recall / (precision + recall)


def metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy/precision/recall/F1 with explicit None for zero denominators."""
    accuracy = (cm.tp + cm.tn) / cm.total if cm.total > 0 else None
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1_score(precision, recall),
    }


def execution_rate(records: list[EvalRecord]) -> float:
    if not records:
        raise ValueError("execution rate of zero records")
    return sum(1 for r in records if r.decision.executed) / len(records)


def summarize(records: list[EvalRecord], model_label: str) -> list[MetricsRow]:
    """Four rows per backtest: ungated and gated, per positive side.

    Confusion metrics re-designate the positive class over all records; the
    execution rate of a gated row is taken over the records predicting that
    row's side, which is what makes per-side rates differ.
    """
    rows = []
    for side in (Side.UP, Side.DOWN):
        side_records = [r for r in records if r.predicted == side]
        ungated = metrics(confusion(records, side, gated=False))
        rows.append(
            MetricsRow(
                model=model_label,
                side=side.value,
                execution_rate=1.0 if records else None,
                **ungated,
            )
        )
        gated = metrics(confusion(records, side, gated=True))
        rows.append(
            MetricsRow(
                model=f"{model_label}+gate",
                side=side.value,
                execution_rate=execution_rate(side_records) if side_records else None,
                **gated,
            )
        )
    return rows


def _percent(value: float | None) -> str:
    return UNDEFINED_MARK if value is None else f"{round(value * 100)}%"


def report(rows: list[MetricsRow], fmt: str = "table") -> str:
    """Render metric rows as an aligned table, JSON, or CSV.

    The table rounds to whole percentages; JSON and CSV carry the raw
    fractions (None/null/empty for undefined values).
    """
    if fmt == "table":
        header = ["Models", "Side", "Accuracy", "Precision", "Recall", "F1 score", "Execution Rate"]
        body = [[r.model, r.side, *map(_percent, astuple(r)[2:])] for r in rows]
        widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
        render = lambda row: "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        return "\n".join([render(header)] + [render(row) for row in body]) + "\n"

    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2) + "\n"

    if fmt == "csv":
        cell = lambda v: "" if v is None else repr(v)
        lines = [REPORT_CSV_HEADER]
        for r in rows:
            lines.append(",".join([r.model, r.side, *map(cell, astuple(r)[2:])]))
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown report format {fmt!r}")


def parse_report_csv(text: str) -> list[MetricsRow]:
    """Rows of a CSV report; a malformed row raises ValueError naming its line."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or ",".join(rows[0][1]) != REPORT_CSV_HEADER:
        raise ValueError(f"expected header {REPORT_CSV_HEADER!r}")
    names = REPORT_CSV_HEADER.split(",")
    out = []
    for line, row in rows[1:]:
        if len(row) != len(names):
            raise ValueError(f"report line {line}: expected {len(names)} fields, got {len(row)}")
        nums = []
        for name, value in zip(names[2:], row[2:]):
            try:
                nums.append(None if value == "" else float(value))
            except ValueError:
                raise ValueError(f"report line {line}: {name} {value!r} is not a number") from None
        out.append(MetricsRow(row[0], row[1], *nums))
    return out


def parse_report_json(text: str | bytes) -> list[MetricsRow]:
    """Rows of a JSON report; a malformed row raises ValueError naming it and the key."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise ValueError("report JSON must be a list of rows")
    out = []
    for i, row in enumerate(payload, start=1):
        if not isinstance(row, dict):
            raise ValueError(f"report row {i} is not an object")
        for f in fields(MetricsRow):
            if f.name not in row:
                raise ValueError(f"report row {i} is missing key {f.name!r}")
            value = row[f.name]
            if f.name in ("model", "side"):
                if not isinstance(value, str):
                    raise ValueError(f"report row {i}: {f.name} {value!r} is not a string")
            # JSON true/false load as bool, which Python counts as an int.
            elif value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"report row {i}: {f.name} {value!r} is not a number")
        out.append(MetricsRow(**{f.name: row[f.name] for f in fields(MetricsRow)}))
    return out


def emit_forecast_trace(records: list[EvalRecord], series: Series) -> str:
    """Long-format, plot-ready CSV: one row per record per forecast step."""
    lines = [TRACE_CSV_HEADER]
    closes, timestamps = series.closes.tolist(), series.timestamps.tolist()
    for r in records:
        ts = format_timestamp(timestamps[r.origin_index], series.timestamp_format)
        executed = "true" if r.decision.executed else "false"
        for k, predicted in enumerate(r.forecast.path):
            step = k + 1
            lower = repr(r.forecast.lower[k]) if r.forecast.lower is not None else ""
            upper = repr(r.forecast.upper[k]) if r.forecast.upper is not None else ""
            actual = repr(closes[r.origin_index + step])
            lines.append(f"{ts},{step},{predicted!r},{lower},{upper},{actual},{executed}")
    return "\n".join(lines) + "\n"
