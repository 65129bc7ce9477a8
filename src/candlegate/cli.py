"""Command-line entry point.

Subcommands: validate, rules-scan, forecast, train-gate, backtest, prompt,
report.  Each takes the flags of the config keys it reads (``SETTINGS``).
Options may also come from a JSON config file (--config), which any command
accepts; explicit flags override file values.  Exit codes: 0 success,
1 validation or domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
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
from .forecaster import DEFAULT_COVERAGE, KERNELS, Baseline, ExternalForecaster, check_lookback, coverage_z
from .forecaster import save_external_forecasts
from .market_data import Series, Window, format_timestamp, parse_csv
from .indicators import blocks, check_line_window, fit_resistance_line, fit_support_line, resample_line
from .prompt_prefix import BITCOIN_DOMAIN, PromptConfig, build_prompt
from .reliability_gate import _NUMBER, DEFAULT_THRESHOLD, _has_kind, check_threshold
from .reliability_gate import model_from_json, model_to_json
from .rule_engine import bottoming_tail_rule, explain, predicate_columns, rule_passed, rule_verdicts
from .rule_engine import required_positions

FORMATS = ("table", "json", "csv")
CHOICES = {"format": FORMATS}
MODELS = "|".join((*KERNELS, "external:PATH"))

# Each config key's default, its flag and its help, where "{}" stands for the default.  A flag
# takes values of its default's type, or a repeated value into a tuple default.
SETTINGS = {
    "symbol": ("", "--symbol", "symbol label (default: file stem)"),
    "model": ("drift", "--model", f"forecaster: {MODELS} (default {{}})"),
    "lookback": (EvalConfig.lookback, "--lookback", "window length (default {})"),
    "horizon": (EvalConfig.horizon, "--horizon", "forecast steps (default {})"),
    "coverage": (DEFAULT_COVERAGE, "--coverage", "central interval coverage (default {})"),
    "stride": (EvalConfig.stride, "--stride", "evaluation origin step (default {})"),
    "train_fraction": (EvalConfig.train_fraction, "--train-fraction",
                       "fraction of origins for training (default {})"),
    "threshold": (DEFAULT_THRESHOLD, "--threshold", "gate score threshold (default {})"),
    "required_rules": (EvalConfig.required_rules, "--require-rule", "rule that must pass to execute (repeatable)"),
    "samples": (PromptConfig.line_samples, "--samples", "points per trend-line sequence (default {})"),
    "asset": ("Bitcoin", "--asset", "asset name used in the template (default {})"),
    "domain": (BITCOIN_DOMAIN, "--domain", "domain paragraph override"),
    "format": (FORMATS[0], "--format", "report file format (default {})"),
}


def _check_config_value(key: str, value) -> None:
    """Reject a config-file value whose type differs from that of its default."""
    default = SETTINGS[key][0]
    if isinstance(default, tuple):
        kind = "list of str"
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        kind = type(default).__name__
        ok = _has_kind(value, _NUMBER if kind == "float" else type(default))  # a float key takes an int
    if not ok:
        raise ValueError(f"config file key {key!r} must be of type {kind}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ValueError(f"config file key {key!r} must be one of {list(CHOICES[key])}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer defaults, then the JSON config file, then explicit flags."""
    merged = {key: setting[0] for key, setting in SETTINGS.items()}
    if args.config:
        file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_config) - set(SETTINGS)
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
        for key, value in file_config.items():
            _check_config_value(key, value)
        if "threshold" in file_config and getattr(args, "gate_model", None):
            raise ValueError("config file key 'threshold' conflicts with --gate-model: "
                             "a loaded gate keeps its saved threshold")
        merged.update(file_config)
    merged.update((key, value) for key, value in vars(args).items() if key in SETTINGS)
    coverage_z(merged["coverage"])  # a bad coverage or model is reported before any input is read
    if merged["model"] not in KERNELS and not merged["model"].startswith("external:"):
        raise ValueError(f"unknown forecaster {merged['model']!r} ({MODELS})")
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
    """The named forecaster: a kernel, or else external:PATH, the one other name _merge_config
    admits.  External forecasts are stacked and checked against the horizon once, here."""
    if name in KERNELS:
        return Baseline(KERNELS[name], coverage)
    return ExternalForecaster.load(Path(name.removeprefix("external:")).read_bytes(), series, horizon)


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
    if cfg["lookback"] < 1 or cfg["horizon"] < 1:  # reported before any input is read
        raise ValueError("lookback and horizon must be >= 1")
    check_lookback(cfg["model"], cfg["lookback"])
    series = _load_series(args.data, cfg["symbol"])
    forecaster = _resolve_forecaster(cfg["model"], cfg["coverage"], series, cfg["horizon"])
    w = _trailing_window(series, cfg["lookback"])
    forecast = forecaster(w, cfg["horizon"])
    ts = int(series.timestamps[w.end - 1])
    _emit(save_external_forecasts([(ts, forecast)], series.timestamp_format), args.out)
    return 0


def _eval_config(cfg: dict, rules) -> EvalConfig:
    """The evaluation config, after checking the threshold, required rules and rule lookbacks."""
    check_threshold(cfg["threshold"])
    values = {f.name: cfg[f.name] for f in fields(EvalConfig)}
    values["required_rules"] = tuple(values["required_rules"])
    required_positions([rule.name for rule in rules], values["required_rules"])
    eval_cfg = EvalConfig(**values)
    for rule in rules:
        rule.check_window(eval_cfg.lookback)
    return eval_cfg


def cmd_train_gate(args) -> int:
    cfg = _merge_config(args)
    rules = [bottoming_tail_rule()]
    eval_cfg = _eval_config(cfg, rules)
    series = _load_series(args.data, cfg["symbol"])
    forecaster = _resolve_forecaster(cfg["model"], cfg["coverage"], series, cfg["horizon"])
    gate = replace(train_gate_on_series(series, forecaster, rules, eval_cfg), threshold=cfg["threshold"])
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
        gate = replace(train_gate_on_series(series, forecaster, rules, eval_cfg), threshold=cfg["threshold"])
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
    check_line_window(prompt_cfg.lookback)
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


def _add_flags(parser, *keys: str) -> None:
    """Add the flags of the named config keys; a flag left out leaves its key unset."""
    for key in keys:
        default, flag, text = SETTINGS[key]
        typed = {"type": type(default), "choices": CHOICES.get(key)}
        kw = {"action": "append"} if isinstance(default, tuple) else typed
        parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, help=text.format(default), **kw)


def _add_command(sub, name: str, func, text: str, keys: str) -> argparse.ArgumentParser:
    """A subcommand taking --config and the flags of the config keys it reads."""
    p = sub.add_parser(name, help=text)
    p.set_defaults(func=func)
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_flags(p, *keys.split())
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="candlegate",
        description="Selective-execution OHLCV forecasting with an explainable gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "validate", cmd_validate, "parse and validate an OHLCV CSV file", "symbol")
    p.add_argument("data")

    p = _add_command(sub, "rules-scan", cmd_rules_scan, "scan a series for bottoming-tail candles", "symbol")
    p.add_argument("data")
    p.add_argument("--all", action="store_true", help="print a block for every candle")

    p = _add_command(sub, "forecast", cmd_forecast, "forecast from the trailing window",
                     "symbol model lookback horizon coverage")
    p.add_argument("data")
    p.add_argument("--out", help="write forecast CSV here instead of stdout")

    p = _add_command(sub, "train-gate", cmd_train_gate, "train the reliability gate and save it",
                     "symbol model lookback horizon train_fraction threshold")
    p.add_argument("data")
    p.add_argument("--out", required=True, help="output path for the gate model JSON")

    p = _add_command(sub, "backtest", cmd_backtest, "walk-forward backtest with metric report",
                     "symbol model lookback horizon coverage stride train_fraction required_rules format")
    p.add_argument("data")
    p.add_argument("--report-out", dest="report_out", help="write the metrics report here")
    p.add_argument("--trace-out", dest="trace_out", help="write the forecast trace CSV here")
    gate = p.add_mutually_exclusive_group()
    gate.add_argument("--gate-model", dest="gate_model", help="pre-trained gate model JSON; keeps its threshold")
    _add_flags(gate, "threshold")

    p = _add_command(sub, "prompt", cmd_prompt, "emit the structured prompt prefix text",
                     "symbol lookback horizon samples asset domain")
    p.add_argument("data")
    p.add_argument("--out", help="also write the prompt to this file")

    p = _add_command(sub, "report", cmd_report, "re-render a saved report (JSON or CSV)", "format")
    p.add_argument("rows", help="report file produced by backtest")
    p.add_argument("--out", help="write here instead of stdout")
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
