"""Command-line entry point.

Subcommands: validate, rules-scan, forecast, train-gate, backtest, prompt,
report.  Options may also come from a JSON config file (--config); explicit
flags override file values.  Exit codes: 0 success, 1 validation or domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .evaluation import (
    EvalConfig,
    forecast_trace_chunks,
    parse_report_csv,
    parse_report_json,
    report,
    summarize,
    train_gate_on_series,
    walk_forward,
)
from .forecaster import DEFAULT_COVERAGE, KERNELS, Baseline, ExternalForecaster, coverage_z
from .forecaster import save_external_forecasts
from .market_data import Series, Window, format_timestamp, parse_csv
from .indicators import blocks, fit_resistance_line, fit_support_line, resample_line
from .prompt_prefix import BITCOIN_DOMAIN, PromptConfig, build_prompt
from .reliability_gate import model_from_json, model_to_json
from .rule_engine import bottoming_tail_rule, explain, predicate_columns, rule_passed, rule_verdicts
from .rule_engine import required_positions

DEFAULTS = {
    "symbol": "",
    "model": "drift",
    **{f.name: f.default for f in fields(EvalConfig)},
    "coverage": DEFAULT_COVERAGE,
    "samples": PromptConfig.line_samples,
    "asset": "Bitcoin",
    "domain": BITCOIN_DOMAIN,
    "format": "table",
}

CONFIG_KEYS = tuple(DEFAULTS)
FORMATS = ("table", "json", "csv")


def _check_config_value(key: str, value) -> None:
    """Reject a config-file value whose type differs from that of its default."""
    default = DEFAULTS[key]
    if isinstance(default, tuple):
        kind = "list of str"
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        # A float key also takes an int. JSON true/false load as bool, a
        # subclass of int, and are rejected.
        kind = type(default).__name__
        ok = isinstance(value, (int, float) if kind == "float" else type(default))
        ok = ok and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"config file key {key!r} must be of type {kind}, got {value!r}")
    if key == "format" and value not in FORMATS:
        raise ValueError(f"config file key 'format' must be one of {list(FORMATS)}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer defaults, then the JSON config file, then explicit flags."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        file_config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(file_config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_config) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
        for key, value in file_config.items():
            _check_config_value(key, value)
        merged.update(file_config)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None and value != []:
            merged[key] = value
    coverage_z(merged["coverage"])  # a bad coverage is reported before any input is read
    return merged


def _load_series(path: str, symbol: str) -> Series:
    return parse_csv(Path(path).read_bytes(), symbol=symbol or Path(path).stem)


def _trailing_window(series: Series, lookback: int) -> Window:
    if len(series) < lookback:
        raise ValueError(
            f"insufficient history: need {lookback} candles, have {len(series)}"
        )
    return series.window(len(series) - lookback, len(series))


def _resolve_forecaster(name: str, coverage: float, series: Series, horizon: int):
    """The named forecaster.  External forecasts are stacked and checked against the
    horizon once, here."""
    if name in KERNELS:
        return Baseline(KERNELS[name], coverage)
    if name.startswith("external:"):
        path = name.split(":", 1)[1]
        return ExternalForecaster.load(Path(path).read_bytes(), series, horizon)
    raise ValueError(f"unknown forecaster {name!r} (naive|drift|linreg|external:PATH)")


def _write_chunks(path: str, chunks) -> None:
    """Write an iterable of text chunks, each as soon as it is made."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _write_text(path: str, text: str) -> None:
    _write_chunks(path, (text,))


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    cfg = _merge_config(args)
    series = _load_series(args.data, cfg["symbol"])
    print(f"OK {len(series)} candles")
    return 0


def cmd_rules_scan(args) -> int:
    cfg = _merge_config(args)
    series = _load_series(args.data, cfg["symbol"])
    rule = bottoming_tail_rule()
    lookback = rule.max_lookback
    if len(series) < lookback:
        raise ValueError(
            f"insufficient history: rule needs {lookback} candles, have {len(series)}"
        )
    matches = 0
    for ends in blocks(np.arange(lookback, len(series) + 1)):
        columns = predicate_columns(rule, series, ends, lookback)
        passed = rule_passed(columns)
        matches += int(passed.sum())
        rows = range(len(ends)) if args.all else np.flatnonzero(passed).tolist()
        for i, verdict in zip(rows, rule_verdicts(rule, columns, rows)):
            index = int(ends[i]) - 1
            ts = format_timestamp(int(series.timestamps[index]), series.timestamp_format)
            print(f"candle {index} ({ts})")
            for line in explain(verdict):
                print(f"  {line}")
            print()
    print(f"{matches} matches")
    return 0


def cmd_forecast(args) -> int:
    cfg = _merge_config(args)
    series = _load_series(args.data, cfg["symbol"])
    forecaster = _resolve_forecaster(cfg["model"], cfg["coverage"], series, cfg["horizon"])
    w = _trailing_window(series, cfg["lookback"])
    forecast = forecaster(w, cfg["horizon"])
    ts = int(series.timestamps[w.end - 1])
    _emit(save_external_forecasts([(ts, forecast)], series.timestamp_format), args.out)
    return 0


def _eval_config(cfg: dict, rules) -> EvalConfig:
    """The evaluation config, with its required rules checked against the rules."""
    values = {f.name: cfg[f.name] for f in fields(EvalConfig)}
    values["required_rules"] = tuple(values["required_rules"])
    required_positions([rule.name for rule in rules], values["required_rules"])
    return EvalConfig(**values)


def cmd_train_gate(args) -> int:
    cfg = _merge_config(args)
    rules = [bottoming_tail_rule()]
    eval_cfg = _eval_config(cfg, rules)
    series = _load_series(args.data, cfg["symbol"])
    forecaster = _resolve_forecaster(cfg["model"], cfg["coverage"], series, cfg["horizon"])
    gate = train_gate_on_series(series, forecaster, rules, eval_cfg)
    _write_text(args.out, model_to_json(gate))
    print(f"gate trained: {gate.dim} features, threshold {gate.threshold}, saved to {args.out}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _merge_config(args)
    rules = [bottoming_tail_rule()]
    eval_cfg = _eval_config(cfg, rules)
    series = _load_series(args.data, cfg["symbol"])
    forecaster = _resolve_forecaster(cfg["model"], cfg["coverage"], series, cfg["horizon"])
    if args.gate_model:
        gate = model_from_json(Path(args.gate_model).read_text(encoding="utf-8"))
    else:
        gate = train_gate_on_series(series, forecaster, rules, eval_cfg)
    table = walk_forward(series, forecaster, gate, rules, eval_cfg)
    rows = summarize(table, model_label=cfg["model"])
    print(report(rows, "table"), end="")
    if args.report_out:
        _write_text(args.report_out, report(rows, cfg["format"]))
    if args.trace_out:
        _write_chunks(args.trace_out, forecast_trace_chunks(table, series))
    return 0


def cmd_prompt(args) -> int:
    cfg = _merge_config(args)
    # A bad config is reported before any input is read.
    prompt_cfg = PromptConfig(cfg["asset"], cfg["domain"], cfg["lookback"], cfg["horizon"], cfg["samples"])
    series = _load_series(args.data, cfg["symbol"])
    w = _trailing_window(series, prompt_cfg.lookback)
    support = resample_line(fit_support_line(w), len(w), prompt_cfg.line_samples)
    resistance = resample_line(fit_resistance_line(w), len(w), prompt_cfg.line_samples)
    text = build_prompt(w, support, resistance, prompt_cfg)
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    return 0


def cmd_report(args) -> int:
    cfg = _merge_config(args)
    text = Path(args.rows).read_text(encoding="utf-8")
    if text.lstrip().startswith("["):
        rows = parse_report_json(text)
    else:
        rows = parse_report_csv(text)
    _emit(report(rows, cfg["format"]), args.out)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, *, gate: bool = False) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--symbol", help="symbol label (default: file stem)")
    parser.add_argument("--model", help="forecaster: naive|drift|linreg|external:PATH")
    parser.add_argument("--lookback", type=int,
                        help=f"window length (default {DEFAULTS['lookback']})")
    parser.add_argument("--horizon", type=int,
                        help=f"forecast steps (default {DEFAULTS['horizon']})")
    parser.add_argument("--coverage", type=float,
                        help=f"central interval coverage (default {DEFAULTS['coverage']})")
    if gate:
        parser.add_argument("--stride", type=int,
                            help=f"evaluation origin step (default {DEFAULTS['stride']})")
        parser.add_argument("--train-fraction", dest="train_fraction", type=float,
                            help="fraction of origins used to train the gate "
                                 f"(default {DEFAULTS['train_fraction']})")
        parser.add_argument("--threshold", type=float,
                            help=f"gate score threshold (default {DEFAULTS['threshold']})")
        parser.add_argument("--require-rule", dest="required_rules", action="append",
                            help="rule that must pass for execution (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="candlegate",
        description="Selective-execution OHLCV forecasting with an explainable gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an OHLCV CSV file")
    p.add_argument("data")
    p.add_argument("--config")
    p.add_argument("--symbol")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rules-scan", help="scan a series for bottoming-tail candles")
    p.add_argument("data")
    p.add_argument("--config")
    p.add_argument("--symbol")
    p.add_argument("--all", action="store_true", help="print a block for every candle")
    p.set_defaults(func=cmd_rules_scan)

    p = sub.add_parser("forecast", help="forecast from the trailing window")
    p.add_argument("data")
    p.add_argument("--out", help="write forecast CSV here instead of stdout")
    _add_config_flags(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("train-gate", help="train the reliability gate and save it")
    p.add_argument("data")
    p.add_argument("--out", required=True, help="output path for the gate model JSON")
    _add_config_flags(p, gate=True)
    p.set_defaults(func=cmd_train_gate)

    p = sub.add_parser("backtest", help="walk-forward backtest with metric report")
    p.add_argument("data")
    p.add_argument("--gate-model", dest="gate_model", help="pre-trained gate model JSON")
    p.add_argument("--report-out", dest="report_out", help="write the metrics report here")
    p.add_argument("--trace-out", dest="trace_out", help="write the forecast trace CSV here")
    p.add_argument("--format", choices=FORMATS, help="report file format")
    _add_config_flags(p, gate=True)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("prompt", help="emit the structured prompt prefix text")
    p.add_argument("data")
    p.add_argument("--out", help="also write the prompt to this file")
    p.add_argument("--asset", help="asset name used in the template (default Bitcoin)")
    p.add_argument("--domain", help="domain paragraph override")
    p.add_argument("--samples", type=int,
                   help=f"points per trend-line sequence (default {DEFAULTS['samples']})")
    _add_config_flags(p)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("report", help="re-render a saved report (JSON or CSV)")
    p.add_argument("rows", help="report file produced by backtest")
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--config")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
