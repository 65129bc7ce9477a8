import json
from pathlib import Path

import pytest

from candlegate.cli import main
from candlegate.forecaster import load_external_forecasts
from candlegate.reliability_gate import model_from_json

from conftest import BACKTEST_FIXTURE, BTC_FIXTURE, PLANTED_FIXTURE

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


def test_forecast_output_reimports(tmp_path, capsys, backtest_series):
    out_path = tmp_path / "forecast.csv"
    code = main(["forecast", str(BACKTEST_FIXTURE), "--model", "linreg", "--out", str(out_path)])
    assert code == 0
    items = load_external_forecasts(out_path.read_bytes(), series=backtest_series)
    assert len(items) == 1
    assert items[0][1].horizon == 7
    assert items[0][1].origin_index == len(backtest_series) - 1


def test_train_gate_and_reuse(tmp_path, capsys):
    model_path = tmp_path / "gate.json"
    code = main(["train-gate", str(BACKTEST_FIXTURE), *BT_ARGS, "--out", str(model_path)])
    assert code == 0
    model = model_from_json(model_path.read_text())
    assert model.dim == 8
    code = main(["backtest", str(BACKTEST_FIXTURE), *BT_ARGS, "--gate-model", str(model_path)])
    assert code == 0


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
    ],
    ids=["csv_field_count", "csv_non_numeric", "json_missing_key", "json_wrong_type", "json_not_object"],
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
    ],
)
def test_config_file_rejects_mistyped_values(tmp_path, capsys, config, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    code = main(["backtest", str(BACKTEST_FIXTURE), "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
