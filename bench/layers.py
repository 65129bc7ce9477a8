"""Layer lookup sites for the traced run, and the per-layer metrics built from them.

Each layer is one candlegate module.  A site is the attribute through which a
caller reaches a public function of that layer; the same function is often
reached through two sites (``reliability_gate.score`` from the benchmark,
``evaluation.score`` from ``walk_forward``), and both record the same span
name.  bench/LAYERS.md maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

from statistics import median

from candlegate import cli, evaluation, forecaster, indicators, market_data
from candlegate import prompt_prefix, reliability_gate, rule_engine

PARSE = "market_data.parse_csv"
WINDOW = "market_data.window"
ENVELOPE = "indicators.envelope"
RESAMPLE = "indicators.resample_line"
VOLATILITY = "indicators.realized_volatility"
RULE = "rule_engine.evaluate_rule"
BASELINE = "forecaster.baseline"
LOAD_EXTERNAL = "forecaster.load_external_forecasts"
EXTRACT = "reliability_gate.extract_features"
TRAIN = "reliability_gate.train"
SCORE = "reliability_gate.score"
DECIDE = "reliability_gate.decide"
MODEL_IO = "reliability_gate.model_io"
TRAIN_GATE = "evaluation.train_gate_on_series"
WALK_FORWARD = "evaluation.walk_forward"
APPLY_THRESHOLD = "evaluation.apply_threshold"
SUMMARIZE = "evaluation.summarize"
REPORT = "evaluation.report"
EMIT_TRACE = "evaluation.emit_forecast_trace"
PROMPT = "prompt_prefix.build_prompt"
CLI_MAIN = "cli.main"


def _count(key, measure):
    def note(tracer, args, result):
        tracer.counts[key] += measure(args, result)

    return note


def _note_decide(tracer, args, result):
    # Sweep re-decisions reuse scores; only first decisions count for the ratio.
    if tracer.parent_name() != APPLY_THRESHOLD:
        tracer.counts["reliability_gate.decisions"] += 1
        tracer.counts["reliability_gate.executed"] += int(result.executed)


def _note_parse(tracer, args, result):
    tracer.counts["market_data.candles"] += len(result)
    tracer.counts["market_data.input_bytes"] += len(args[0])


def install(tracer) -> None:
    rule_note = _count("rule_engine.passed", lambda a, r: int(r.passed))
    rows_note = _count("forecaster.external_rows", lambda a, r: sum(f.horizon for _, f in r))
    trace_note = _count("evaluation.trace_bytes", lambda a, r: len(r))
    prompt_note = _count("prompt_prefix.bytes", lambda a, r: len(r))
    sites = [
        (market_data, "parse_csv", PARSE, _note_parse),
        (cli, "parse_csv", PARSE, _note_parse),
        (market_data.Series, "window", WINDOW, None),
        (indicators, "fit_support_line", ENVELOPE, None),
        (indicators, "fit_resistance_line", ENVELOPE, None),
        (reliability_gate, "fit_support_line", ENVELOPE, None),
        (reliability_gate, "fit_resistance_line", ENVELOPE, None),
        (indicators, "resample_line", RESAMPLE, None),
        (forecaster, "realized_volatility", VOLATILITY, None),
        (reliability_gate, "realized_volatility", VOLATILITY, None),
        (rule_engine, "evaluate_rule", RULE, rule_note),
        (evaluation, "evaluate_rule", RULE, rule_note),
        (forecaster, "drift_forecast", BASELINE, None),
        (forecaster, "load_external_forecasts", LOAD_EXTERNAL, rows_note),
        (reliability_gate, "extract_features", EXTRACT, None),
        (evaluation, "extract_features", EXTRACT, None),
        (evaluation, "train", TRAIN, None),
        (reliability_gate, "score", SCORE, None),
        (evaluation, "score", SCORE, None),
        (reliability_gate, "decide", DECIDE, _note_decide),
        (evaluation, "decide", DECIDE, _note_decide),
        (reliability_gate, "model_to_json", MODEL_IO, None),
        (reliability_gate, "model_from_json", MODEL_IO, None),
        (cli, "model_from_json", MODEL_IO, None),
        (evaluation, "train_gate_on_series", TRAIN_GATE, None),
        (cli, "train_gate_on_series", TRAIN_GATE, None),
        (evaluation, "walk_forward", WALK_FORWARD, None),
        (cli, "walk_forward", WALK_FORWARD, None),
        (evaluation, "apply_threshold", APPLY_THRESHOLD, None),
        (evaluation, "summarize", SUMMARIZE, None),
        (cli, "summarize", SUMMARIZE, None),
        (evaluation, "report", REPORT, None),
        (cli, "report", REPORT, None),
        (evaluation, "emit_forecast_trace", EMIT_TRACE, trace_note),
        (cli, "emit_forecast_trace", EMIT_TRACE, trace_note),
        (prompt_prefix, "build_prompt", PROMPT, prompt_note),
        (cli, "main", CLI_MAIN, None),
    ]
    for owner, attr, name, note in sites:
        tracer.patch(owner, attr, name, note)
    for key in list(forecaster.BASELINES):
        tracer.patch_item(forecaster.BASELINES, key, BASELINE)


def _additive(phase) -> dict:
    """Metrics that add up over phases: counts and seconds."""
    return {
        "market_data.parse_s": phase.total(PARSE),
        "market_data.candles": phase.count("market_data.candles"),
        "market_data.input_bytes": phase.count("market_data.input_bytes"),
        "market_data.window_s": phase.total(WINDOW),
        "indicators.envelope_fits": phase.calls(ENVELOPE),
        "indicators.envelope_s": phase.total(ENVELOPE),
        "indicators.volatility_calls": phase.calls(VOLATILITY),
        "rule_engine.evaluations": phase.calls(RULE),
        "rule_engine.s": phase.total(RULE),
        "rule_engine.passed": phase.count("rule_engine.passed"),
        "forecaster.calls": phase.calls(BASELINE),
        "forecaster.s": phase.self_s(BASELINE),
        "forecaster.load_external_s": phase.total(LOAD_EXTERNAL),
        "forecaster.external_rows": phase.count("forecaster.external_rows"),
        "reliability_gate.extract_calls": phase.calls(EXTRACT),
        "reliability_gate.extract_self_s": phase.self_s(EXTRACT),
        "reliability_gate.train_s": phase.total(TRAIN),
        "reliability_gate.score_calls": phase.calls(SCORE),
        "reliability_gate.score_s": phase.total(SCORE),
        "reliability_gate.decide_s": phase.total(DECIDE),
        "reliability_gate.decisions": phase.count("reliability_gate.decisions"),
        "reliability_gate.executed": phase.count("reliability_gate.executed"),
        "reliability_gate.model_io_s": phase.total(MODEL_IO),
        "evaluation.train_gate_s": phase.total(TRAIN_GATE),
        "evaluation.walk_forward_self_s": phase.self_s(WALK_FORWARD),
        "evaluation.sweep_s": phase.total(APPLY_THRESHOLD) + phase.total(SUMMARIZE),
        "evaluation.report_s": phase.total(REPORT),
        "evaluation.trace_emit_s": phase.total(EMIT_TRACE),
        "evaluation.trace_bytes": phase.count("evaluation.trace_bytes"),
        "prompt_prefix.prompts": phase.calls(PROMPT),
        "prompt_prefix.build_s": phase.total(PROMPT),
        "prompt_prefix.bytes": phase.count("prompt_prefix.bytes"),
        "cli.self_s": phase.self_s(CLI_MAIN),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(setup, passes, untraced_s: list[float]) -> dict:
    """One set-up plus one job pass (the median over traced passes) per metric.

    Ratios use the counts of the set-up and the first traced pass; the trace
    overhead compares the medians of traced and untraced passes of the job.
    """
    base = _additive(setup)
    per_pass = [_additive(p) for p in passes]
    values = {key: base[key] + median(p[key] for p in per_pass) for key in base}
    first = {key: base[key] + per_pass[0][key] for key in base}
    values["indicators.volatility_per_origin"] = _ratio(
        first["indicators.volatility_calls"], first["reliability_gate.extract_calls"]
    )
    values["rule_engine.pass_ratio"] = _ratio(
        first["rule_engine.passed"], first["rule_engine.evaluations"]
    )
    values["reliability_gate.executed_ratio"] = _ratio(
        first["reliability_gate.executed"], first["reliability_gate.decisions"]
    )
    values["trace.unattributed_share"] = median(
        (p.duration - p.root_s) / p.duration for p in passes
    )
    values["trace.overhead_s"] = median(p.duration for p in passes) - median(untraced_s)
    return values


def span_summary(phase) -> dict:
    return {
        name: {"calls": calls, "total_s": total, "self_s": self_s}
        for name, (calls, total, self_s) in sorted(phase.by_name.items())
    }
