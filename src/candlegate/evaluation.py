"""Walk-forward backtest of the forecaster plus gate, and the metric suite.

The protocol is strictly chronological: the gate is trained once on the
earliest fraction of forecast origins (minus an embargo of one horizon so no
training label peeks into the evaluation segment), then every evaluation
origin gets one row of the decision table: forecast, rule predicate columns,
gate score, and the predicted and realized direction over the same horizon.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .forecaster import Forecast, Forecasts, Side, forecasts_at, is_up
from .indicators import blocks
from .market_data import Series, format_timestamp
from .reliability_gate import (
    GateDecision,
    GateModel,
    TrainingError,
    executes,
    feature_names,
    feature_rows,
    gate_decision,
    scores,
    train,
)
from .rule_engine import (
    Rule, RuleVerdict, predicate_columns, required_positions, rule_passed, rule_verdicts,
)

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


@dataclass(frozen=True, eq=False)
class EvalTable(Sequence):
    """Walk-forward decisions as read-only columns, one row per evaluation origin.

    ``rules_ok``: every required rule passed; ``forecasts``: the forecast columns;
    ``rule_columns``: each rule's predicate column triples; ``required``: the positions
    of the required rules.  As a sequence the table holds EvalRecords, each built only
    when read.
    """

    origins: np.ndarray
    predicted_up: np.ndarray
    realized_up: np.ndarray
    scores: np.ndarray
    rules_ok: np.ndarray
    threshold: float
    forecasts: Forecasts
    rules: tuple[Rule, ...] = ()
    rule_columns: tuple = ()
    required: tuple[int, ...] = ()

    def __post_init__(self):
        for name, dtype in (("origins", np.int64), ("predicted_up", bool), ("realized_up", bool),
                            ("scores", np.float64), ("rules_ok", bool)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def executed(self) -> np.ndarray:
        return executes(self.scores, self.threshold, self.rules_ok)

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, i: int) -> EvalRecord:
        i = range(len(self))[i]
        verdicts = tuple(rule_verdicts(r, c, [i])[0] for r, c in zip(self.rules, self.rule_columns))
        return EvalRecord(
            self.origins.item(i),
            Side.UP if self.predicted_up[i] else Side.DOWN,
            Side.UP if self.realized_up[i] else Side.DOWN,
            gate_decision(self.scores.item(i), self.threshold, tuple(verdicts[p] for p in self.required)),
            self.forecasts[i],
            verdicts,
        )


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


def _origin_columns(series: Series, origins: list[int], forecaster, rules: list[Rule], cfg: EvalConfig):
    """Forecasts, then per block the rules' predicate column triples and feature rows,
    concatenated, and the predicted- and realized-Up bits."""
    origins = np.asarray(origins)
    forecasts = forecasts_at(forecaster, series, origins, cfg.lookback, cfg.horizon)
    predicted = forecasts.paths[:, -1]
    per_block, X = [], []
    for block, block_predicted in zip(blocks(origins), blocks(predicted)):
        ends = block + 1
        columns = [predicate_columns(rule, series, ends, cfg.lookback) for rule in rules]
        passed = np.array([rule_passed(c) for c in columns], dtype=bool).reshape(len(rules), len(ends)).T
        X.append(feature_rows(series, ends, cfg.lookback, block_predicted, passed))
        per_block.append(columns)
    # per_block[block][rule][predicate] is a triple; concatenate each column over blocks.
    rule_columns = [
        [tuple(map(np.concatenate, zip(*triples))) for triples in zip(*blocks_of_rule)]
        for blocks_of_rule in zip(*per_block)
    ]
    origin_closes = series.closes[origins]
    realized_up = is_up(series.closes[origins + cfg.horizon], origin_closes)
    return forecasts, rule_columns, np.concatenate(X), is_up(predicted, origin_closes), realized_up


def train_gate_on_series(series: Series, forecaster, rules: list[Rule], cfg: EvalConfig) -> GateModel:
    """Fit the gate on the embargoed training segment of the walk-forward split.

    The label of an origin is 1 when its predicted direction was realized.
    """
    required_positions([rule.name for rule in rules], cfg.required_rules)
    train_origins, _ = _origin_splits(series, cfg)
    if not train_origins:
        raise TrainingError("training segment is empty; lower train_fraction or add data")
    _, _, X, predicted_up, realized_up = _origin_columns(series, train_origins, forecaster, rules, cfg)
    names = feature_names([rule.name for rule in rules])
    return train(X, predicted_up == realized_up, threshold=cfg.threshold, names=names)


def walk_forward(
    series: Series,
    forecaster,
    gate: GateModel | None,
    rules: list[Rule],
    cfg: EvalConfig,
) -> EvalTable:
    """The decision table over the evaluation segment.

    With gate=None the gate is first trained on the training segment; pass a
    pre-trained model to evaluate with train_fraction 0.
    """
    required = required_positions([rule.name for rule in rules], cfg.required_rules)
    _, eval_origins = _origin_splits(series, cfg)
    if gate is None:
        gate = train_gate_on_series(series, forecaster, rules, cfg)
    forecasts, rule_columns, X, predicted_up, realized_up = _origin_columns(
        series, eval_origins, forecaster, rules, cfg
    )
    rules_ok = np.ones(len(eval_origins), dtype=bool)
    for p in required:
        rules_ok &= rule_passed(rule_columns[p])
    return EvalTable(
        eval_origins, predicted_up, realized_up, scores(gate, X), rules_ok, gate.threshold,
        forecasts, tuple(rules), tuple(rule_columns), required,
    )


def apply_threshold(table: EvalTable, gate: GateModel, threshold: float) -> EvalTable:
    """The same decisions held to another threshold: the rows keep their
    scores and required-rule outcomes, so rule vetoes carry over."""
    return replace(table, threshold=replace(gate, threshold=threshold).threshold)  # validated by GateModel


def f1_score(precision: float | None, recall: float | None) -> float | None:
    if precision is None or recall is None or precision + recall == 0.0:
        return None
    return 2.0 * precision * recall / (precision + recall)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def _count(bits: np.ndarray) -> int:
    return int(np.count_nonzero(bits))


def _metrics_row(model: str, side: Side, predicted: np.ndarray, realized: np.ndarray, rate):
    """Confusion metrics of the rows' positive-side bits (predicted, realized)."""
    tp, fp, fn = _count(predicted & realized), _count(predicted & ~realized), _count(~predicted & realized)
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    accuracy = _ratio(len(predicted) - fp - fn, len(predicted))
    return MetricsRow(model, side.value, accuracy, precision, recall, f1_score(precision, recall), rate)


def summarize(table: EvalTable, model_label: str) -> list[MetricsRow]:
    """Four rows per backtest: ungated and gated, per positive side.

    Confusion counts re-designate the positive class over all rows (gated:
    over the executed rows); the execution rate of a gated row is taken over
    the rows predicting that row's side, which is what makes per-side rates
    differ.
    """
    executed = table.executed
    rows = []
    for side, up in ((Side.UP, True), (Side.DOWN, False)):
        predicted, realized = table.predicted_up == up, table.realized_up == up
        rows.append(_metrics_row(model_label, side, predicted, realized, 1.0 if len(table) else None))
        rate = _ratio(_count(predicted & executed), _count(predicted))
        rows.append(_metrics_row(f"{model_label}+gate", side, predicted[executed], realized[executed], rate))
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


def forecast_trace_chunks(table: EvalTable, series: Series):
    """The trace CSV text in pieces: the header line, then the rows of each block of
    origins, so a writer holds one block's text at a time."""
    yield TRACE_CSV_HEADER + "\n"
    forecasts, fmt, executed = table.forecasts, series.timestamp_format, table.executed
    for span in blocks(range(len(table))):
        rows = slice(span.start, span.stop)
        block = table.origins[rows]
        origins, timestamps = block.tolist(), series.timestamps[block].tolist()
        # Each realized close the block reads is formatted once: actual[i] is close base + 1 + i.
        base = min(origins)
        actual = list(map(repr, series.closes[base + 1 : max(origins) + forecasts.horizon + 1].tolist()))
        paths = forecasts.paths[rows].tolist()
        if forecasts.lower is None:
            lowers = uppers = [None] * len(paths)
        else:
            lowers, uppers = forecasts.lower[rows].tolist(), forecasts.upper[rows].tolist()
        lines = []
        for origin, ts, path, lower, upper, flag in zip(
            origins, timestamps, paths, lowers, uppers, executed[rows].tolist()
        ):
            ts, flag = format_timestamp(ts, fmt), "true" if flag else "false"
            for k, predicted in enumerate(path):
                interval = "," if lower is None else f"{lower[k]!r},{upper[k]!r}"
                lines.append(f"{ts},{k + 1},{predicted!r},{interval},{actual[origin - base + k]},{flag}\n")
        yield "".join(lines)


def emit_forecast_trace(table: EvalTable, series: Series) -> str:
    """Long-format, plot-ready CSV: one row per origin per forecast step."""
    return "".join(forecast_trace_chunks(table, series))
