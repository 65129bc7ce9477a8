import argparse
import hashlib
import json
import random
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from candlegate import cli
from candlegate.cli import main
from candlegate.evaluation import (
    EvalConfig, forecast_trace_chunks, train_gate_on_series, walk_forward,
)
from candlegate.forecaster import Forecast, drift_forecast, load_external_forecasts, save_external_forecasts
from candlegate.market_data import BLOCK, CSV_HEADER, Series, format_timestamp, parse_csv
from candlegate.reliability_gate import model_from_json
from candlegate.rule_engine import bottoming_tail_rule

from conftest import (
    BACKTEST_FIXTURE, BTC_FIXTURE, PLANTED_FIXTURE, candle_rows, make_series, serialize_csv, series_from_rows,
)

STATS_SENTENCE = (
    "[Statistics]: The input has a minimum value of 26511.2 and a maximum "
    "value of 49011.4, with an average value of 39621.6."
)


def test_validate_ok(capsys):
    assert main(["validate", str(BTC_FIXTURE)]) == 0
    assert capsys.readouterr().out.strip() == "OK 110 candles"


def test_validate_bad_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,open,high,low,close,volume\n"
        "2024-01-01,100,101,99,100,1\n"
        "2024-01-02,100,90,105,100,1\n"
    )
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 1
    assert "empty input" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_rules_scan_planted_fixture(capsys):
    assert main(["rules-scan", str(PLANTED_FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert out.count("bottoming_tail_candle: PASS") == 1
    assert "candle 100 (" in out
    assert out.strip().endswith("1 matches")


def test_rules_scan_all_block_count(tmp_path, capsys):
    lines = PLANTED_FIXTURE.read_text().splitlines()
    shorter = tmp_path / "hundred.csv"
    shorter.write_text("\n".join(lines[: 1 + 100]) + "\n")
    assert main(["rules-scan", str(shorter), "--all"]) == 0
    out = capsys.readouterr().out
    assert out.count("candle ") == 100 - 90 + 1


def test_rules_scan_no_match(tmp_path, capsys):
    lines = PLANTED_FIXTURE.read_text().splitlines()
    quiet = tmp_path / "quiet.csv"
    quiet.write_text("\n".join(lines[: 1 + 95]) + "\n")
    assert main(["rules-scan", str(quiet)]) == 0
    assert capsys.readouterr().out.strip() == "0 matches"


def test_rules_scan_insufficient_history(tmp_path, capsys):
    lines = PLANTED_FIXTURE.read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[: 1 + 50]) + "\n")
    assert main(["rules-scan", str(short)]) == 1
    assert "insufficient history" in capsys.readouterr().err


BT_ARGS = ["--lookback", "95", "--horizon", "3"]


def test_backtest_report_rows(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        ["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--report-out", str(report_path), "--format", "json"]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "Models" in table and "Execution Rate" in table
    rows = json.loads(report_path.read_text())
    assert [(r["model"], r["side"]) for r in rows] == [
        ("drift", "Up"),
        ("drift+gate", "Up"),
        ("drift", "Down"),
        ("drift+gate", "Down"),
    ]


def test_backtest_default_config(tmp_path, capsys):
    # The bundled fixture is long enough for the stock 110/7 configuration.
    report_path = tmp_path / "report.csv"
    code = main(
        ["backtest", str(BACKTEST_FIXTURE), "--report-out", str(report_path), "--format", "csv"]
    )
    assert code == 0
    rows = report_path.read_text().splitlines()
    assert len(rows) == 5
    assert {r.split(",")[1] for r in rows[1:]} == {"Up", "Down"}
    assert sum(1 for r in rows[1:] if "+gate" in r.split(",")[0]) == 2


def test_backtest_threshold_one_executes_nothing(capsys):
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--threshold", "1.0"])
    assert code == 0
    table = capsys.readouterr().out
    gated_lines = [l for l in table.splitlines() if "+gate" in l]
    assert gated_lines and all("0%" in l for l in gated_lines)
    assert all("—" in l for l in gated_lines)


def test_backtest_is_deterministic(tmp_path):
    outputs = []
    for run in ("a", "b"):
        report_path = tmp_path / f"report_{run}.csv"
        trace_path = tmp_path / f"trace_{run}.csv"
        code = main(
            [
                "backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--format", "csv",
                "--report-out", str(report_path), "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        outputs.append((report_path.read_bytes(), trace_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_prompt_contains_golden_statistics(capsys):
    assert main(["prompt", str(BTC_FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert STATS_SENTENCE in out
    assert "Predict the data for the next 7 steps given the previous 110 steps." in out


def test_prompt_horizon_flag(capsys):
    assert main(["prompt", str(BTC_FIXTURE), "--horizon", "3"]) == 0
    assert "next 3 steps" in capsys.readouterr().out


def test_prompt_stdout_equals_file(tmp_path, capsys):
    out_path = tmp_path / "prompt.txt"
    assert main(["prompt", str(BTC_FIXTURE), "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert out_path.read_text(encoding="utf-8") == stdout



@pytest.mark.parametrize("flag", ["--lookback", "--samples", "--horizon"])
@pytest.mark.parametrize("data", ["demo", "missing"])
def test_prompt_checks_its_config_before_reading_data(flag, data, tmp_path, capsys):
    path = BACKTEST_FIXTURE if data == "demo" else tmp_path / "missing.csv"
    assert main(["prompt", str(path), flag, "0"]) == 1
    assert capsys.readouterr().err == "error: lookback, horizon and line_samples must be >= 1\n"


@pytest.mark.parametrize("args", [["--lookback", "0"], ["--lookback", "-3"], ["--horizon", "0"]],
                         ids=["lookback_0", "lookback_-3", "horizon_0"])
@pytest.mark.parametrize("data", ["demo", "missing"])
def test_forecast_checks_its_config_before_reading_data(args, data, tmp_path, capsys):
    path = BACKTEST_FIXTURE if data == "demo" else tmp_path / "missing.csv"
    assert main(["forecast", str(path), *args]) == 1
    assert capsys.readouterr().err == "error: lookback and horizon must be >= 1\n"


@pytest.mark.parametrize("command", ["train-gate", "backtest"])
@pytest.mark.parametrize("data", ["demo", "missing"])
def test_threshold_is_checked_before_reading_data(command, data, tmp_path, monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("the data was read before the threshold was checked")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    monkeypatch.setattr(cli, "train_gate_on_series", must_not_run)
    path = BACKTEST_FIXTURE if data == "demo" else tmp_path / "missing.csv"
    args = [command, str(path), *BT_ARGS, "--threshold", "1.5"]
    assert main(args + (["--out", str(tmp_path / "gate.json")] if command == "train-gate" else [])) == 1
    assert capsys.readouterr().err == "error: threshold must be in [0, 1], got 1.5\n"
    assert not (tmp_path / "gate.json").exists()


@pytest.mark.parametrize(
    "command, args, message",
    [
        (command, ["--model", "nope"], "unknown forecaster 'nope' (naive|drift|linreg|external:PATH)")
        for command in ("forecast", "train-gate", "backtest")
    ] + [
        (command, ["--lookback", "50"], "rule 'bottoming_tail_candle' needs 90 candles, window has 50")
        for command in ("train-gate", "backtest")
    ],
    ids=["model-forecast", "model-train-gate", "model-backtest", "lookback-train-gate", "lookback-backtest"],
)
@pytest.mark.parametrize("data", ["demo", "missing"])
def test_model_and_rule_lookback_are_checked_before_reading_data(command, args, message, data, tmp_path,
                                                                  monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("the data was read before the config was checked")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    path = BACKTEST_FIXTURE if data == "demo" else tmp_path / "missing.csv"
    argv = [command, str(path), *BT_ARGS, *args]
    assert main(argv + (["--out", str(tmp_path / "gate.json")] if command == "train-gate" else [])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "gate.json").exists()


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("prompt", ["--lookback", "1"], "need at least 2 candles to fit a line, got 1"),
        ("forecast", ["--lookback", "1", "--model", "drift"], "drift forecast needs a window of at least 2 candles"),
        ("forecast", ["--lookback", "1", "--model", "linreg"], "linreg forecast needs a window of at least 2 candles"),
    ],
    ids=["prompt", "forecast-drift", "forecast-linreg"],
)
@pytest.mark.parametrize("data", ["demo", "missing"])
def test_window_minimums_are_checked_before_reading_data(command, args, message, data, tmp_path, monkeypatch,
                                                         capsys):
    def must_not_run(*args):
        raise AssertionError("the data was read before the window minimum was checked")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    path = BACKTEST_FIXTURE if data == "demo" else tmp_path / "missing.csv"
    assert main([command, str(path), *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fraction, split", [("0", 0), ("0.005", 1)])
def test_train_gate_names_the_counts_of_an_empty_training_segment(fraction, split, tmp_path, capsys):
    """A lower train_fraction never adds training origins, so the advice is to raise it."""
    model_path = tmp_path / "gate.json"
    code = main(["train-gate", str(BACKTEST_FIXTURE), *BT_ARGS, "--train-fraction", fraction,
                 "--out", str(model_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: training segment is empty: the training split holds {split} origin(s) and the embargo "
        "of 3 origins before evaluation drops them all; raise train_fraction or add data\n"
    )
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["train-gate", "backtest"])
def test_a_rule_required_twice_is_refused_before_reading_data(command, tmp_path, monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("the data was read before the required rules were checked")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"required_rules": ["bottoming_tail_candle", "bottoming_tail_candle"]}))
    argv = [command, str(BACKTEST_FIXTURE), *BT_ARGS, "--config", str(config_path)]
    if command == "backtest":
        argv = [command, str(BACKTEST_FIXTURE), *BT_ARGS] + ["--require-rule", "bottoming_tail_candle"] * 2
    assert main(argv + (["--out", str(tmp_path / "gate.json")] if command == "train-gate" else [])) == 1
    assert capsys.readouterr().err == "error: required rule 'bottoming_tail_candle' is given more than once\n"
    assert not (tmp_path / "gate.json").exists()


def test_a_config_file_threshold_is_refused_under_gate_model(tmp_path, monkeypatch, capsys):
    """A loaded gate keeps its saved threshold, so a file's threshold is an error, not ignored."""
    def must_not_run(*args):
        raise AssertionError("the input was read although the config conflicts with --gate-model")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    monkeypatch.setattr(cli, "model_from_json", must_not_run)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"threshold": 0.99}))
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--gate-model", str(tmp_path / "gate.json"),
                 "--config", str(config_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file key 'threshold'") and "keeps its saved threshold" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_threshold_is_put_on_the_trained_gate(source, tmp_path, capsys):
    config_path, gate_path = tmp_path / "run.json", tmp_path / "gate.json"
    config_path.write_text(json.dumps({"threshold": 0.7}))
    setting = ["--threshold", "0.7"] if source == "flag" else ["--config", str(config_path)]
    assert main(["train-gate", str(BACKTEST_FIXTURE), *BT_ARGS, *setting, "--out", str(gate_path)]) == 0
    assert model_from_json(gate_path.read_text()).threshold == 0.7
    assert main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS]) == 0
    at_default = capsys.readouterr().out
    assert main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, *setting]) == 0
    assert capsys.readouterr().out != at_default


COMMAND_FLAGS = {
    "validate": "--config --symbol",
    "rules-scan": "--config --symbol --all",
    "forecast": "--config --symbol --model --lookback --horizon --coverage --out",
    "train-gate": "--config --symbol --model --lookback --horizon --train-fraction --threshold --out",
    "backtest": "--config --symbol --model --lookback --horizon --coverage --stride --train-fraction "
                "--threshold --require-rule --format --gate-model --report-out --trace-out",
    "prompt": "--config --symbol --lookback --horizon --samples --asset --domain --out",
    "report": "--config --format --out",
}


def test_each_command_takes_exactly_its_flags():
    """Every flag a command takes changes what it does; a flag it would ignore is not offered."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    taken = {
        name: {flag for action in command._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, command in commands.items()
    }
    assert taken == {name: set(flags.split()) for name, flags in COMMAND_FLAGS.items()}
    assert sum(map(len, taken.values())) == 45


def test_backtest_takes_a_gate_model_or_a_threshold_not_both(monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("the input was read although the flags conflict")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    monkeypatch.setattr(cli, "model_from_json", must_not_run)
    with pytest.raises(SystemExit) as exit_info:
        main(["backtest", str(BACKTEST_FIXTURE), "--gate-model", "g.json", "--threshold", "0.9"])
    assert exit_info.value.code == 2
    assert "argument --threshold: not allowed with argument --gate-model" in capsys.readouterr().err


def test_forecast_output_reimports(tmp_path, capsys, backtest_series):
    out_path = tmp_path / "forecast.csv"
    code = main(["forecast", str(BACKTEST_FIXTURE), "--model", "linreg", "--out", str(out_path)])
    assert code == 0
    items = load_external_forecasts(out_path.read_bytes(), series=backtest_series)
    assert len(items) == 1
    assert items[0][1].horizon == 7
    assert items[0][0] == int(backtest_series.timestamps[-1])


def test_train_gate_and_reuse(tmp_path, capsys):
    model_path = tmp_path / "gate.json"
    code = main(["train-gate", str(BACKTEST_FIXTURE), *BT_ARGS, "--out", str(model_path)])
    assert code == 0
    model = model_from_json(model_path.read_text())
    assert model.dim == 8
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--gate-model", str(model_path)])
    assert code == 0


def test_backtest_rejects_a_gate_trained_on_other_features(tmp_path, capsys):
    """A gate whose feature names differ from the run's (the first two swapped, the
    rest renamed) is refused, naming the first feature that differs."""
    model_path = tmp_path / "gate.json"
    assert main(["train-gate", str(BACKTEST_FIXTURE), *BT_ARGS, "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    first, second, *rest = payload["feature_names"]
    payload["feature_names"] = [second, first, *(f"other_{name}" for name in rest)]
    model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--gate-model", str(model_path)])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: gate model feature 0 is 'volatility', but the rules give 'predicted_move'\n"
    )


def test_train_gate_rejects_unknown_required_rule(tmp_path, capsys):
    """train-gate takes no --require-rule, but checks the required rules of a shared config file."""
    model_path, config_path = tmp_path / "gate.json", tmp_path / "run.json"
    config_path.write_text(json.dumps({"required_rules": ["nope"]}))
    code = main(["train-gate", str(BACKTEST_FIXTURE), *BT_ARGS, "--config", str(config_path),
                 "--out", str(model_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "'nope'" in err
    assert not model_path.exists()


def test_backtest_rejects_unknown_required_rule_before_reading_data(monkeypatch, capsys):
    from candlegate import cli

    def must_not_run(*args):
        raise AssertionError("the data was read before the rule names were checked")

    monkeypatch.setattr(cli, "_load_series", must_not_run)
    monkeypatch.setattr(cli, "train_gate_on_series", must_not_run)
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--require-rule", "nope"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "'nope'" in err


@pytest.mark.parametrize(  # train-gate takes no --coverage flag, but a config file may hold the key
    "command, source",
    [("forecast", "flag"), ("forecast", "config"), ("train-gate", "config"), ("backtest", "flag"),
     ("backtest", "config")],
)
def test_bad_coverage_is_reported_before_the_input_is_read(command, source, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,open,high,low,close,volume\n2024-01-01,100,101,99,100,1\n")
    args = [command, str(bad), *BT_ARGS]
    if command == "train-gate":
        args += ["--out", str(tmp_path / "gate.json")]
    if source == "flag":
        args += ["--coverage", "1.5"]
    else:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"coverage": 1.5}))
        args += ["--config", str(config_path)]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: coverage must be in (0, 1), got 1.5\n"


def _gate_payload(**changes):
    payload = {
        "format": 2,
        "weights": [0.0] * 8,
        "threshold": 0.5,
        "feature_means": [0.0] * 8,
        "feature_stds": [1.0] * 8,
        "feature_names": [f"f{i}" for i in range(8)],
    }
    payload.update(changes)
    return {k: v for k, v in payload.items() if v is not None}


@pytest.mark.parametrize(
    "payload, message",
    [
        (_gate_payload(feature_stds=None), "missing feature_stds"),
        (_gate_payload(threshold="0.5"), "'threshold' must be a number"),
        (_gate_payload(feature_means=[0.0] * 7), "differ in length"),
        (_gate_payload(feature_stds=[0.0] * 8), "stds must be finite and > 0"),
        (_gate_payload(threshold=True), "'threshold' must be a number"),
        (_gate_payload(weights=[True] + [0.0] * 7), "'weights' must be a list of numbers"),
        (_gate_payload(weights=[10**400] + [0.0] * 7), "weights must be finite"),
        (_gate_payload(feature_means=[-(10**400)] + [0.0] * 7), "means must be finite"),
        (_gate_payload(feature_stds=[10**400] + [1.0] * 7), "stds must be finite and > 0"),
    ],
)
def test_backtest_rejects_malformed_gate_model(tmp_path, capsys, payload, message):
    model_path = tmp_path / "gate.json"
    model_path.write_text(json.dumps(payload))
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--gate-model", str(model_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_external_forecaster_roundtrip(tmp_path, capsys, backtest_series):
    # Export drift forecasts for every origin the backtest will visit, then
    # run the backtest with them as the external model: same records as drift.
    from candlegate.evaluation import EvalConfig, _origin_splits
    from candlegate.forecaster import drift_forecast, save_external_forecasts

    cfg = EvalConfig(lookback=95, horizon=3, train_fraction=0.7)
    train_origins, eval_origins = _origin_splits(backtest_series, cfg)
    items = []
    for t in sorted(set(train_origins) | set(eval_origins)):
        w = backtest_series.window(t - cfg.lookback + 1, t + 1)
        items.append((int(backtest_series.timestamps[t]), drift_forecast(w, cfg.horizon)))
    ext_path = tmp_path / "external.csv"
    ext_path.write_text(save_external_forecasts(items, backtest_series.timestamp_format))

    report_drift = tmp_path / "drift.csv"
    report_ext = tmp_path / "ext.csv"
    base = ["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--format", "csv"]
    assert main([*base, "--report-out", str(report_drift)]) == 0
    assert main([*base, "--model", f"external:{ext_path}", "--report-out", str(report_ext)]) == 0
    drift_rows = report_drift.read_text().replace("drift", "M")
    ext_rows = report_ext.read_text().replace(f"external:{ext_path}", "M")
    assert drift_rows == ext_rows


def test_forecast_naive_lookback_one_has_zero_width(capsys, backtest_series):
    assert main(["forecast", str(BACKTEST_FIXTURE), "--model", "naive", "--lookback", "1"]) == 0
    [(_, forecast)] = load_external_forecasts(capsys.readouterr().out)
    last = float(backtest_series.closes[-1])
    assert forecast.lower == forecast.path == forecast.upper == (last,) * 7


@pytest.mark.parametrize("model", ["drift", "linreg"])
def test_forecast_trend_models_need_two_candles(model, capsys):
    assert main(["forecast", str(BACKTEST_FIXTURE), "--model", model, "--lookback", "1"]) == 1
    assert capsys.readouterr().err == f"error: {model} forecast needs a window of at least 2 candles\n"


@pytest.mark.parametrize(
    "steps, horizon, message",
    [
        ((3, 3, 2, 3), "3", "external forecast horizon 2 != configured 3"),
        ((3, 3, 3, 3), "4", "external forecast horizon 3 != configured 4"),
    ],
    ids=["ragged", "wrong_horizon"],
)
@pytest.mark.parametrize("command", ["backtest", "train-gate"])
def test_external_horizons_are_checked_before_training(command, steps, horizon, message, tmp_path,
                                                       monkeypatch, capsys, backtest_series):
    from candlegate import cli

    def must_not_run(*args):
        raise AssertionError("training or walk-forward ran before the horizons were checked")

    monkeypatch.setattr(cli, "train_gate_on_series", must_not_run)
    monkeypatch.setattr(cli, "walk_forward", must_not_run)
    lines = ["origin_timestamp,step,predicted_close"]
    for origin, n in zip(range(100, 104), steps):
        label = format_timestamp(int(backtest_series.timestamps[origin]), backtest_series.timestamp_format)
        lines += [f"{label},{k},100.0" for k in range(1, n + 1)]
    ext = tmp_path / "ext.csv"
    ext.write_text("\n".join(lines) + "\n")
    argv = [command, str(BACKTEST_FIXTURE), "--lookback", "95", "--horizon", horizon,
            "--model", f"external:{ext}"]
    code = main(argv + (["--out", str(tmp_path / "gate.json")] if command == "train-gate" else []))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_external_forecaster_names_the_first_missing_origin(tmp_path, capsys, backtest_series):
    label = format_timestamp(int(backtest_series.timestamps[200]), backtest_series.timestamp_format)
    ext = tmp_path / "ext.csv"
    rows = "".join(f"{label},{k},100.0\n" for k in (1, 2, 3))
    ext.write_text("origin_timestamp,step,predicted_close\n" + rows)
    assert main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--model", f"external:{ext}"]) == 1
    first = format_timestamp(int(backtest_series.timestamps[94]), backtest_series.timestamp_format)
    assert capsys.readouterr().err == f"error: no external forecast for origin {first}\n"


def test_a_report_label_holding_a_comma_renders_again(tmp_path, capsys, backtest_series):
    ext = tmp_path / "we,ird" / "f.csv"
    ext.parent.mkdir()
    ext.write_text(_external_forecast_csv(backtest_series, True))
    report_path = tmp_path / "r.csv"
    assert main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--model", f"external:{ext}",
                 "--report-out", str(report_path), "--format", "csv"]) == 0
    capsys.readouterr()
    assert main(["report", str(report_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == report_path.read_text()


def test_report_command_renders_json(tmp_path, capsys):
    report_path = tmp_path / "rows.json"
    assert main(
        ["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--report-out", str(report_path), "--format", "json"]
    ) == 0
    capsys.readouterr()
    assert main(["report", str(report_path), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Models")


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("rows.csv", "model,side,accuracy,precision,recall,f1,execution_rate\nm,Up,0.5\n",
         "report line 2: expected 7 fields, got 3"),
        ("rows.csv", "model,side,accuracy,precision,recall,f1,execution_rate\n"
         "m,Up,0.5,0.5,0.5,0.5,1.0\nm,Down,0.5,high,0.5,0.5,1.0\n",
         "report line 3: precision 'high' is not a number"),
        ("rows.json", '[{"model": "a"}]', "report row 1 is missing key 'side'"),
        ("rows.json", '[{"model": "a", "side": "Up", "accuracy": "50%", "precision": null, '
         '"recall": null, "f1": null, "execution_rate": 1.0}]', "report row 1: accuracy '50%'"),
        ("rows.json", '[["a", "Up"]]', "report row 1 is not an object"),
        ("rows.json", '[{"model": "a", "side": "Up", "accuracy": true, "precision": null, '
         '"recall": null, "f1": null, "execution_rate": 1.0}]', "report row 1: accuracy True is not a number"),
        ("rows.csv", "model,side,accuracy,precision,recall,f1,execution_rate\nm,Up,inf,0.5,0.5,0.5,1.0\n",
         "report line 2: accuracy 'inf' is not a number in [0, 1]"),
        ("rows.csv", "model,side,accuracy,precision,recall,f1,execution_rate\nm,Up,0.5,nan,0.5,0.5,1.0\n",
         "report line 2: precision 'nan' is not a number in [0, 1]"),
        ("rows.csv", "model,side,accuracy,precision,recall,f1,execution_rate\nm,Up,0.5,0.5,1.5,0.5,1.0\n",
         "report line 2: recall '1.5' is not a number in [0, 1]"),
        ("rows.json", '[{"model": "a", "side": "Up", "accuracy": Infinity, "precision": null, '
         '"recall": null, "f1": null, "execution_rate": 1.0}]', "report row 1: accuracy inf is not a number in [0, 1]"),
        ("rows.json", '[{"model": "a", "side": "Up", "accuracy": 0.5, "precision": NaN, '
         '"recall": null, "f1": null, "execution_rate": 1.0}]', "report row 1: precision nan is not a number in [0, 1]"),
        ("rows.json", '[{"model": "a", "side": "Up", "accuracy": 0.5, "precision": null, '
         '"recall": null, "f1": null, "execution_rate": 1.5}]',
         "report row 1: execution_rate 1.5 is not a number in [0, 1]"),
    ],
    ids=["csv_field_count", "csv_non_numeric", "json_missing_key", "json_wrong_type", "json_not_object",
         "json_bool", "csv_inf", "csv_nan", "csv_above_one", "json_infinity", "json_nan", "json_above_one"],
)
def test_report_rejects_malformed_rows(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_validate_reports_undecodable_byte_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,open,high,low,close,volume\n2024-01-01,100,101,99,100,1\n"
                    b"2024-01-02,100,101,99,100,1\xff\n")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == "error: line 3: invalid UTF-8 byte 0xff\n"


def test_config_file_with_flag_override(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"lookback": 30, "horizon": 5}))
    assert main(["prompt", str(BTC_FIXTURE), "--config", str(config_path), "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "next 2 steps given the previous 30 steps" in out


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"lookbak": 30}))
    assert main(["prompt", str(BTC_FIXTURE), "--config", str(config_path)]) == 1
    assert "unknown config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"lookback": "110"}, "'lookback' must be of type int"),
        ({"lookback": True}, "'lookback' must be of type int"),
        ({"threshold": "0.5"}, "'threshold' must be of type float"),
        ({"required_rules": "bottoming_tail_candle"}, "'required_rules' must be of type list of str"),
        ({"format": "xml"}, "'format' must be one of"),
        ({"threshold": True}, "'threshold' must be of type float"),
    ],
)
def test_config_file_rejects_mistyped_values(tmp_path, capsys, config, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    code = main(["backtest", str(BACKTEST_FIXTURE), "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err


def _external_forecast_csv(series, with_interval: bool) -> str:
    """A forecast for every origin of the demo fixture, one horizon of 3 steps,
    written by hand so the file does not depend on any forecaster."""
    header = "origin_timestamp,step,predicted_close" + (",lower,upper" if with_interval else "")
    lines = [header]
    closes = series.closes.tolist()
    for t in range(94, len(series)):
        label = format_timestamp(int(series.timestamps[t]), series.timestamp_format)
        sign = 1.0 if t % 3 else -1.0
        for k in range(1, 4):
            p = closes[t] * (1.0 + sign * 0.002 * k)
            extra = f",{p - 0.5 * k!r},{p + 0.5 * k!r}" if with_interval else ""
            lines.append(f"{label},{k},{p!r}{extra}")
    return "\n".join(lines) + "\n"


GOLDEN_MODELS = {
    "naive": ["--model", "naive"],
    "drift": ["--model", "drift"],
    "linreg": ["--model", "linreg"],
    "linreg_95": ["--model", "linreg", "--coverage", "0.95"],
    "external": ["--model", "external:ext.csv"],
    "external_no_interval": ["--model", "external:ext_plain.csv"],
}


def _golden_outputs(model: str, workdir: Path, capsys) -> dict[str, bytes]:
    """Every byte a backtest, train-gate and forecast run writes, by artifact."""
    series = parse_csv(BACKTEST_FIXTURE.read_bytes())
    (workdir / "ext.csv").write_text(_external_forecast_csv(series, True))
    (workdir / "ext_plain.csv").write_text(_external_forecast_csv(series, False))
    flags = [*BT_ARGS, *GOLDEN_MODELS[model]]
    gate_flags = [*BT_ARGS, "--model", GOLDEN_MODELS[model][1]]  # train-gate takes no --coverage
    data = str(BACKTEST_FIXTURE)
    outputs = {}
    capsys.readouterr()
    assert main(["backtest", data, *flags, "--format", "csv", "--report-out", "report.csv",
                 "--trace-out", "trace.csv"]) == 0
    outputs["backtest_stdout"] = capsys.readouterr().out.encode()
    assert main(["backtest", data, *flags, "--format", "json", "--report-out", "report.json"]) == 0
    capsys.readouterr()
    assert main(["train-gate", data, *gate_flags, "--out", "gate.json"]) == 0
    capsys.readouterr()
    assert main(["forecast", data, *flags]) == 0
    outputs["forecast_csv"] = capsys.readouterr().out.encode()
    for name in ("report.csv", "report.json", "trace.csv", "gate.json"):
        outputs[name] = (workdir / name).read_bytes()
    return outputs


GOLDEN_SHA256 = {  # computed before the forecasters became block kernels
    'drift': {
        'backtest_stdout': 'c059214584dbc5443e7e071574fe61ac3d483f58be17879649e4fed89f03041e',
        'forecast_csv': '28f6c908c52fdb6c73581e6a63c15c8be660abb7d836c874a88f1445050691bb',
        'report.csv': '1105233305cadd3f7227ff8ed8960e35aeb30c2ba8a7c4c7f59b0d9ae57a4131',
        'report.json': 'b0cd7f919d7f678369da574eadec65d33698bb1c339e0451be5cd0a45d4cdd23',
        'trace.csv': 'a49db7e09fa2b4e5f371b91998317d8897dca0cad505e9bde0236f85e57ce18a',
        'gate.json': 'b12ab46e132f9209819e0dfb93047676a3fd5f14a92d6d7473ddfd8ba340b57a',
    },
    'external': {
        'backtest_stdout': '6945d2123fb3a2328f2457d034b0f7a8e16c5fb601569c1d04263e642db7b38a',
        'forecast_csv': '197b415d39477f6e56a11ea25ced43695da02211a1dbcada74fa4f3dc12225ef',
        'report.csv': '1ad858caa051d048d069ee3ff8dcb18e48698c07f80f7bb662c1db3595dc63e9',
        'report.json': 'ca0fb62a73334fadbfce889db02ed4f6af26b13e21a014a7887b83c124afc1bc',
        'trace.csv': 'f4de51f1626f153fac8436d983a3d579216a85848b2d470106beec0bf9ce27e8',
        'gate.json': 'f8f1fc89c08b67f3cef80a944008dc3b0937f7681d8bce4a0783f632dbc17d45',
    },
    'external_no_interval': {
        'backtest_stdout': '9342e716cdb06d2ec19aa174016ceeba13edb94b2a7f09bb7dd8ee79a5fa4abe',
        'forecast_csv': '2d1b510369c30809e37112027d5fad49b12358229fd03256491c841ba3518d98',
        'report.csv': '8f344353aa81bc3368997c128a588d03454c2996eb00024f5e71e95c2afd7923',
        'report.json': '4b693583df96c1be6eee20454552012fdfefcd62a7c46edce77894e80bcacba8',
        'trace.csv': '1b3f9f4991b15bcf18d785b61a95eedd76fb4f1c2f8fda44e3209290644c7c7c',
        'gate.json': 'f8f1fc89c08b67f3cef80a944008dc3b0937f7681d8bce4a0783f632dbc17d45',
    },
    'linreg': {
        'backtest_stdout': '58daccd1a3ac7fa3a8df0793ddaf4013bdecb87d588d7c5a03dda2e40612fce1',
        'forecast_csv': '5447e383b9338c207d978613dbae0ed55e248adbd57fc2373c87462a03233aa9',
        'report.csv': '43de41f35abf1c752794f3beaa89c3735003d3adce7b22921c999118f4e044bc',
        'report.json': '4049b156dac7e1487f3559505bc088e1565eddc1715b3abc9ffd677366b509ef',
        'trace.csv': '7cfa453f8faf726a00c3d4f98b483174a3863dff6d2f32eb02a6ac2ab972b6e0',
        'gate.json': 'f26e66d1527384b31cbdb3a225eec961c58f03feba5f85db1ec87d012d6fee05',
    },
    'linreg_95': {
        'backtest_stdout': '58daccd1a3ac7fa3a8df0793ddaf4013bdecb87d588d7c5a03dda2e40612fce1',
        'forecast_csv': '399818681c0b9c7e57532d5c907a78edce7d2566f7795b21f3646a6be9ca0cc9',
        'report.csv': '43de41f35abf1c752794f3beaa89c3735003d3adce7b22921c999118f4e044bc',
        'report.json': '4049b156dac7e1487f3559505bc088e1565eddc1715b3abc9ffd677366b509ef',
        'trace.csv': '4079e7563e58d2e0fcba53b731784bac3cec5c2c62f1f2285163b06ba14a866f',
        'gate.json': 'f26e66d1527384b31cbdb3a225eec961c58f03feba5f85db1ec87d012d6fee05',
    },
    'naive': {
        'backtest_stdout': '52c7e486140f9ca3d165757d556232c5cd3b55d68ff490d67e320282b3fc308d',
        'forecast_csv': 'ff5be45c11c6f4a3c3e26b363208908f0340a9f5ebfd0cfddc01c3a4c12d27a1',
        'report.csv': '2d28b6f6659c436546f961f23dbb4152ab4b5afeaf82d9ad810c9ad86403017c',
        'report.json': 'e5c3ada6c08bc5b756b4319bb8ddf6fba2c1529e4ea106117b074fff66e775b1',
        'trace.csv': 'c35fe45693c98aec034ccb809988575d6e7ea5f73fd3e8d20940caad55ce7376',
        'gate.json': 'd91de662c7cb0c766976dcf01193514c4ab81dae63a94ed4262f3dde52ee3d8b',
    },
}


@pytest.mark.parametrize("model", sorted(GOLDEN_MODELS))
def test_outputs_are_byte_identical_to_the_golden_digests(model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = _golden_outputs(model, tmp_path, capsys)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_SHA256[model]


MULTI_BLOCK_CANDLES = 3200
MULTI_BLOCK_ARGS = ["--lookback", "110", "--horizon", "7", "--train-fraction", "0.5"]
MULTI_BLOCK_MODELS = {"drift": "drift", "external": "external:ext.csv"}


def _multi_block_csv(n: int = MULTI_BLOCK_CANDLES, seed: int = 13) -> str:
    """A market file of n daily candles whose 3,084 origins split into 1,536 training
    and 1,542 evaluation origins: two kernel blocks each at BLOCK 1024, six or seven
    at 256.

    Prices are whole cents from ``random.Random``, whose ``random()`` stream is fixed
    across Python versions, so the file and every digest below are too."""
    rng = random.Random(seed)
    day = date(2015, 1, 1)
    lines, close = [CSV_HEADER], 2_000_000
    for i in range(n):
        open_ = close
        close = max(100, close + close * (int(rng.random() * 401) - 200) // 10_000)
        high = max(open_, close) + int(rng.random() * close) // 100
        low = max(1, min(open_, close) - int(rng.random() * close) // 50)
        cents = (open_, high, low, close)
        prices = ",".join(f"{c // 100}.{c % 100:02d}" for c in cents)
        lines.append(f"{(day + timedelta(days=i)).isoformat()},{prices},{1 + int(rng.random() * 5000)}")
    return "\n".join(lines) + "\n"


def _multi_block_forecast_csv(series, horizon: int = 7) -> str:
    """Forecasts with intervals for every origin of the multi-block file."""
    lines = ["origin_timestamp,step,predicted_close,lower,upper"]
    closes = series.closes.tolist()
    for t in range(109, len(series)):
        label = format_timestamp(int(series.timestamps[t]), series.timestamp_format)
        sign = 1.0 if t % 3 else -1.0
        for k in range(1, horizon + 1):
            p = closes[t] * (1.0 + sign * 0.002 * k)
            lines.append(f"{label},{k},{p!r},{p - 0.5 * k!r},{p + 0.5 * k!r}")
    return "\n".join(lines) + "\n"


def _multi_block_outputs(model: str, workdir: Path, capsys) -> dict[str, bytes]:
    """The stdout, CSV report and trace of a backtest and the JSON of a train-gate run
    on the multi-block file."""
    text = _multi_block_csv()
    (workdir / "market.csv").write_text(text, encoding="utf-8")
    (workdir / "ext.csv").write_text(_multi_block_forecast_csv(parse_csv(text)), encoding="utf-8")
    flags = [*MULTI_BLOCK_ARGS, "--model", MULTI_BLOCK_MODELS[model]]
    capsys.readouterr()
    assert main(["backtest", "market.csv", *flags, "--format", "csv", "--report-out", "report.csv",
                 "--trace-out", "trace.csv"]) == 0
    outputs = {"backtest_stdout": capsys.readouterr().out.encode()}
    assert main(["train-gate", "market.csv", *flags, "--out", "gate.json"]) == 0
    capsys.readouterr()
    for name in ("report.csv", "trace.csv", "gate.json"):
        outputs[name] = (workdir / name).read_bytes()
    return outputs


MULTI_BLOCK_SHA256 = {  # computed with BLOCK = 1024, before the trace was written block by block
    "drift": {
        "backtest_stdout": "e988935c7cc360ed1b6718d76fd6950a092880fb9b759eb36c7d06805a52b9b0",
        "report.csv": "1dbfd4db12e07cf0c5cafa19432db1fa9efc8fd1b69dd115077cf968ecbd8bc3",
        "trace.csv": "e05f88400506a6e079527933ac07de4e32f2f844b37ec4e72f4378a73bff2e7f",
        "gate.json": "007f9c44e28ee31b635d09c3255699efb4eb929f64e5e49120ca328a3f869f4b",
    },
    "external": {
        "backtest_stdout": "21bba80c049473069f904f840a5b5f88386f192002b25b9d7ee1dc132db2f08e",
        "report.csv": "f8946e57af84e5d836fbb66d5dd2cd19e58c17155f10ca0ecf12266849a0c6c7",
        "trace.csv": "36b5bff02389acd3ac52a35db9d537d0e5a06df42fe6690860860db278cb4022",
        "gate.json": "4fc18e96bc08becfac71c1468eb62d2b10495441605d1676f6e71d42b37e1d2f",
    },
}


@pytest.mark.parametrize("model", sorted(MULTI_BLOCK_SHA256))
def test_multi_block_outputs_are_byte_identical_to_the_golden_digests(model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = _multi_block_outputs(model, tmp_path, capsys)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == MULTI_BLOCK_SHA256[model]


def _daily_series(n: int, flavour: str, seed: int) -> Series:
    """A random valid series of n candles one day apart, labelled in the given flavour."""
    rows = candle_rows(make_series(np.random.default_rng(seed), n))
    return series_from_rows("S", [(86_400 * (19_000 + i), *row[1:]) for i, row in enumerate(rows)], flavour)


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("flavour", ["iso", "epoch"])
@pytest.mark.parametrize("interval", [True, False])
def test_streamed_trace_equals_the_whole_trace(rows, flavour, interval, tmp_path, monkeypatch, capsys):
    """The file backtest writes block by block holds the bytes of the joined trace chunks."""
    monkeypatch.chdir(tmp_path)
    lookback, horizon = 90, 3
    series = _daily_series(rows + lookback - 1 + horizon, flavour, seed=rows)
    Path("market.csv").write_text(serialize_csv(series), encoding="utf-8")
    model = "drift"
    if not interval:
        items = [
            (int(series.timestamps[o]), Forecast(drift_forecast(series.window(o + 1 - lookback, o + 1), horizon).path))
            for o in range(lookback - 1, len(series))
        ]
        Path("ext.csv").write_text(save_external_forecasts(items, flavour), encoding="utf-8")
        model = "external:ext.csv"
    flags = ["--lookback", str(lookback), "--horizon", str(horizon), "--model", model]
    assert main(["train-gate", "market.csv", *flags, "--out", "gate.json"]) == 0
    calls, walk = [], cli.walk_forward
    monkeypatch.setattr(cli, "walk_forward", lambda *args: calls.append((args[0], walk(*args))) or calls[-1][1])
    assert main(["backtest", "market.csv", *flags, "--gate-model", "gate.json", "--train-fraction", "0",
                 "--trace-out", "trace.csv"]) == 0
    [(parsed, table)] = calls
    assert len(table) == rows and (table.forecasts.lower is None) != interval
    assert {"true", "false"} <= {line.rsplit(",", 1)[1] for line in Path("trace.csv").read_text().splitlines()[1:]}
    assert Path("trace.csv").read_bytes() == "".join(forecast_trace_chunks(table, parsed)).encode("utf-8")


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_writer_memory_is_bounded_by_the_block(tmp_path):
    """Writing the trace of 16 blocks of origins peaks at most 1.5x as high as writing
    that of 4 blocks, while the joined text of the chunks grows with the table."""
    lookback, horizon, rules = 90, 3, [bottoming_tail_rule()]
    cfg, cases = EvalConfig(lookback, horizon, train_fraction=0.0), {}
    for blocks in (4, 16):
        series = _daily_series(blocks * BLOCK + lookback - 1 + horizon, "iso", seed=blocks)
        gate = train_gate_on_series(series, drift_forecast, rules, EvalConfig(lookback, horizon))
        table = walk_forward(series, drift_forecast, gate, rules, cfg)
        assert len(table) == blocks * BLOCK
        path = tmp_path / f"trace_{blocks}.csv"
        cli._write_chunks(path, forecast_trace_chunks(table, series))  # warm-up
        streamed = _traced_peak(lambda: cli._write_chunks(path, forecast_trace_chunks(table, series)))
        whole = _traced_peak(lambda: "".join(forecast_trace_chunks(table, series)))
        cases[blocks] = streamed, whole, path.stat().st_size
    (streamed_4, whole_4, size_4), (streamed_16, whole_16, size_16) = cases[4], cases[16]
    assert size_16 > 3.9 * size_4
    assert streamed_16 < 1.5 * streamed_4, (streamed_4, streamed_16)
    assert whole_16 > 3.5 * whole_4, (whole_4, whole_16)


PROMPT_CASES = {
    "default": [],
    "samples_1": ["--samples", "1"],
    "lookback_2_samples_3": ["--lookback", "2", "--samples", "3"],
    "horizon_3": ["--horizon", "3"],
    "config_text": ["--config", "prompt.json"],
}
PROMPT_CONFIG = {  # braces, a percent sign, a newline and non-ASCII text
    "asset": "Bit{coin}% Ω\n{0}",
    "domain": "Prices in {asset} rose 5% {}\n%s %(x)d — Ünïcödé 比特币",
}


def _prompt_output(case: str, workdir: Path, capsys) -> bytes:
    (workdir / "prompt.json").write_text(json.dumps(PROMPT_CONFIG), encoding="utf-8")
    capsys.readouterr()
    assert main(["prompt", str(BACKTEST_FIXTURE), *PROMPT_CASES[case], "--out", "prompt.txt"]) == 0
    data = (workdir / "prompt.txt").read_bytes()
    assert capsys.readouterr().out == data.decode("utf-8")
    return data


PROMPT_SHA256 = {  # computed while the prompt was rendered by one f-string per call
    'config_text': 'e86abf514d5e6fc16b490ecd527416ddffd569a2595d00d3e16706310ddac3e6',
    'default': '074ef918e20092843c820bed4bf5ac29ca213c9318385bba6e742418fbe394c3',
    'horizon_3': '902ef5b13fdc03d66554cc36b1e8fd6d6f9eea7070a1f97c1c040b173bfc0139',
    'lookback_2_samples_3': '1d583c1209625b7869f57c201b712c40a157e6dbb389e531ad3839078eb982b6',
    'samples_1': '724df7703b918fb6e90f13aa3dac097b1785a42d7ba8c9d410747339b2abcf65',
}


@pytest.mark.parametrize("case", sorted(PROMPT_CASES))
def test_prompt_is_byte_identical_to_the_golden_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = _prompt_output(case, tmp_path, capsys)
    assert hashlib.sha256(data).hexdigest() == PROMPT_SHA256[case]
