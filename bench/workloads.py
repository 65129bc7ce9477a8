"""The three workloads.  Each one generates its inputs from the seed, sets up,
runs a timed job pass any number of times, and checks what the passes produced.

Program functions are always looked up on their module at call time
(``evaluation.walk_forward``, not a name bound at import) so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from candlegate import cli, evaluation, forecaster, indicators, market_data
from candlegate import prompt_prefix, reliability_gate, rule_engine

import checks as ck
from inputs import external_csv, make_external_forecasts, make_market, market_csv

LOOKBACK = 110
HORIZON = 7
RULE = rule_engine.bottoming_tail_rule().name
ORACLE_SAMPLES = 100
ENVELOPE_SAMPLES = 40


@contextmanager
def spying(owner, attr: str, sink: list, pick):
    """Record ``pick(args, result)`` for every call through ``owner.attr``."""
    original = getattr(owner, attr)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(pick(args, result))
        return result

    setattr(owner, attr, spy)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def same_gate(a, b) -> bool:
    fields = ("weights", "threshold", "feature_means", "feature_stds", "feature_names")
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def flip_one(items: list, index: int, flip):
    planted = list(items)
    planted[index] = flip(planted[index])
    return planted


def flip_record(r):
    return replace(r, decision=replace(r.decision, executed=not r.decision.executed))


class Workload:
    name = ""

    def __init__(self, out: Path, seed: int, oracles):
        self.out = out
        self.seed = seed
        self.oracles = oracles
        self.rng = np.random.default_rng(seed + 17)  # picks the sampled origins
        self.files: dict[str, Path] = {}
        self.first = None
        self.latencies: list[float] | None = None
        self.planted_failures = 0

    def write(self, name: str, data: bytes) -> Path:
        path = self.out / name
        path.write_bytes(data)
        self.files[name] = path
        return path

    def read(self, name: str) -> bytes:
        return self.files[name].read_bytes()

    def envelope_fits(self, series, origins, offset: int = 0):
        fits = []
        for o in ck.sample(self.rng, list(origins), ENVELOPE_SAMPLES):
            w = series.window(o - LOOKBACK + 1, o + 1)
            fits.append(
                (
                    o - LOOKBACK + 1 + offset,
                    o + 1 + offset,
                    indicators.fit_support_line(w),
                    indicators.fit_resistance_line(w),
                )
            )
        return fits

    def after_pass(self, output, checks: ck.Checks) -> None:
        """Keep the first pass's output; every later pass must reproduce it exactly."""
        key = self.identity(output)
        if self.first is None:
            self.first = output
            self.first_key = key
        else:
            checks.check(key == self.first_key, f"{self.name}: a repeated pass changed its output")


class Backtest(Workload):
    """`candlegate backtest` in-process on 10k candles, training included."""

    name = "backtest_10k"
    CANDLES = 10_000
    TRAIN_FRACTION = 0.7

    def __init__(self, out, seed, oracles):
        super().__init__(out, seed, oracles)
        self.market = make_market(seed, self.CANDLES)
        self.csv = self.write("market.csv", market_csv(self.market))
        self.report_path = out / "report.csv"
        self.trace_path = out / "trace.csv"
        self.argv = [
            "backtest", str(self.csv),
            "--model", "drift",
            "--lookback", str(LOOKBACK),
            "--horizon", str(HORIZON),
            "--train-fraction", str(self.TRAIN_FRACTION),
            "--report-out", str(self.report_path),
            "--trace-out", str(self.trace_path),
            "--format", "csv",
        ]
        origins = range(LOOKBACK - 1, self.CANDLES - HORIZON)
        n_train = int(len(origins) * self.TRAIN_FRACTION)
        self.eval_origins = list(origins[n_train:])
        self.train_origins = [t for t in origins[:n_train] if t + HORIZON <= self.eval_origins[0]]
        self.origins = len(self.train_origins) + len(self.eval_origins)

    def setup(self) -> None:
        self.series = market_data.parse_csv(self.read("market.csv"), symbol="BENCH")

    def job(self):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(self.argv)

    def identity(self, code):
        return code, self.report_path.read_bytes(), self.trace_path.read_bytes()

    def verify(self, checks: ck.Checks) -> None:
        code, report_bytes, trace_bytes = self.first_key
        checks.check(code == 0, f"{self.name}: cli exited with {code}")
        # One more pass, outside the timed ones, with a spy that exposes the
        # gate and the records behind the report.
        with spying(cli, "walk_forward", [], lambda a, r: (a[2], r)) as seen:
            self.after_pass(self.job(), checks)
        if not checks.check(len(seen) == 1, f"{self.name}: cli did not call walk_forward once"):
            return
        gate, records = seen[0]
        report_text, trace_text = report_bytes.decode(), trace_bytes.decode()
        self.check_outputs(checks, gate, records, report_text, trace_text)
        self.check_embargo(checks, gate)
        ck.check_oracle(
            checks, self.oracles, self.market,
            [(r.origin_index, r.verdicts[0]) for r in ck.sample(self.rng, records, ORACLE_SAMPLES)],
            rule_engine.DEFAULT_LOOKBACK, self.name,
        )
        ck.check_envelopes(
            checks, self.market,
            self.envelope_fits(self.series, self.train_origins + self.eval_origins), self.name,
        )

        planted = ck.Checks()
        wrong = flip_one(records, len(records) // 2, flip_record)
        self.check_outputs(planted, gate, wrong, report_text, trace_text)
        self.planted_failures = planted.failed
        checks.check(planted.failed > 0, f"{self.name}: planted wrong executed flag went unnoticed")

    def check_embargo(self, checks, gate) -> None:
        """Candles after the first evaluation origin must not change the gate.

        Every training label must be realized by the first evaluation origin,
        so replacing all later candles with another seed's candles and
        training again has to give the very same gate.
        """
        boundary = self.eval_origins[0] + 1
        spliced = self.market.splice(make_market(self.seed + 1, self.CANDLES), boundary)
        series = market_data.parse_csv(market_csv(spliced), symbol="BENCH")
        cfg = evaluation.EvalConfig(
            lookback=LOOKBACK, horizon=HORIZON, train_fraction=self.TRAIN_FRACTION
        )
        retrained = evaluation.train_gate_on_series(
            series, forecaster.drift_forecast, [rule_engine.bottoming_tail_rule()], cfg
        )
        checks.check(
            same_gate(gate, retrained),
            f"{self.name}: the gate changed when candles from {boundary} on changed",
        )

    def check_outputs(self, checks, gate, records, report_text, trace_text) -> None:
        """The trace and report, recomputed from the generated closes, and the
        records behind them."""
        lines = [line.split(",") for line in trace_text.splitlines()[1:]]
        checks.check(
            len(lines) == len(self.eval_origins) * HORIZON,
            f"{self.name}: {len(lines)} trace rows for "
            f"{len(self.eval_origins)} origins x horizon {HORIZON}",
        )
        closes = self.market.closes
        triples, flags = [], []
        for i, origin in enumerate(self.eval_origins):
            rows = lines[i * HORIZON : (i + 1) * HORIZON]
            if not checks.check(len(rows) == HORIZON, f"{self.name}: trace ends before origin {origin}"):
                break
            flags.append(rows[0][6] == "true")
            checks.check(
                all(
                    row[1] == str(k + 1)
                    and row[6] == rows[0][6]
                    and float(row[5]) == closes[origin + k + 1]
                    for k, row in enumerate(rows)
                ),
                f"{self.name}: trace rows of origin {origin} are inconsistent",
            )
            last = float(closes[origin])
            triples.append(
                (
                    ck.side(float(rows[-1][2]) > last),
                    ck.side(float(closes[origin + HORIZON]) > last),
                    flags[-1],
                )
            )

        rows = evaluation.parse_report_csv(report_text)
        checks.check(
            evaluation.report(rows, "csv") == report_text,
            f"{self.name}: report CSV does not round-trip",
        )
        ck.check_rows(checks, rows, ck.expected_summary(triples, "drift"), f"{self.name} report")

        checks.check(
            [r.origin_index for r in records] == self.eval_origins,
            f"{self.name}: records are not the evaluation origins",
        )
        ck.check_decisions(checks, ck.record_decisions(records), gate.threshold, self.name)
        ck.check_directions(checks, closes, records, HORIZON)
        for r, flag in zip(records, flags):
            checks.check(
                r.decision.executed == flag,
                f"{self.name}: origin {r.origin_index} executed={r.decision.executed} "
                f"in its record but {flag} in the trace",
            )


class LlmLoop(Workload):
    """The text-model loop: prompt prefixes out, external forecasts in, gate decides."""

    name = "llm_loop_10k"
    PREFIX = 2_000
    EVAL_ORIGINS = 10_000
    SAMPLES = 6
    THRESHOLDS = [i / 20 for i in range(21)]

    def __init__(self, out, seed, oracles):
        super().__init__(out, seed, oracles)
        # Global candle indices: the gate trains on [0, PREFIX); the loop runs
        # on [offset, n), whose first origin PREFIX - 1 is no earlier than the
        # last candle any training label reads.
        n = self.PREFIX + self.EVAL_ORIGINS + HORIZON - 1
        self.offset = self.PREFIX - LOOKBACK
        self.market = make_market(seed, n)
        train_origins = range(LOOKBACK - 1, self.PREFIX - HORIZON)
        self.global_origins = list(range(self.PREFIX - 1, n - HORIZON))
        self.local_origins = [o - self.offset for o in self.global_origins]
        self.origins = len(self.global_origins)
        self.forecasts = forecasts = make_external_forecasts(
            seed, self.market, range(LOOKBACK - 1, n - HORIZON), HORIZON
        )
        train_market = self.market.slice(0, self.PREFIX)
        self.write("train.csv", market_csv(train_market))
        self.write(
            "train_forecasts.csv",
            external_csv(train_market, {o: forecasts[o] for o in train_origins}),
        )
        eval_market = self.market.slice(self.offset, n)
        self.write("market.csv", market_csv(eval_market))
        self.write(
            "forecasts.csv",
            external_csv(eval_market, {o - self.offset: forecasts[o] for o in self.global_origins}),
        )
        self.gate_path = out / "gate.json"
        self.prompt_samples = set(ck.sample(self.rng, self.local_origins, ORACLE_SAMPLES))
        self.rules = [rule_engine.bottoming_tail_rule()]
        self.train_cfg = evaluation.EvalConfig(lookback=LOOKBACK, horizon=HORIZON, train_fraction=0.95)
        self.eval_cfg = evaluation.EvalConfig(lookback=LOOKBACK, horizon=HORIZON, train_fraction=0.0)
        self.prompt_cfg = prompt_prefix.PromptConfig(
            asset="Bitcoin", domain=prompt_prefix.BITCOIN_DOMAIN,
            lookback=LOOKBACK, horizon=HORIZON, line_samples=self.SAMPLES,
        )

    def external(self, w, horizon):
        forecast = self.by_ts[int(w.series.timestamps[w.end - 1])]
        if forecast.horizon != horizon:
            raise ValueError(f"external forecast horizon {forecast.horizon} != {horizon}")
        return forecast

    def setup(self) -> None:
        train_series = market_data.parse_csv(self.read("train.csv"), symbol="BENCH")
        self.series = market_data.parse_csv(self.read("market.csv"), symbol="BENCH")
        self.by_ts = {}
        for name, series in (("train_forecasts.csv", train_series), ("forecasts.csv", self.series)):
            self.by_ts.update(forecaster.load_external_forecasts(self.read(name), series=series))
        self.trained = evaluation.train_gate_on_series(
            train_series, self.external, self.rules, self.train_cfg
        )
        self.gate_path.write_text(reliability_gate.model_to_json(self.trained), encoding="utf-8")
        self.gate = reliability_gate.model_from_json(self.gate_path.read_text(encoding="utf-8"))

    def job(self):
        digest = hashlib.sha256()
        sampled = {}
        for o in self.local_origins:
            w = self.series.window(o - LOOKBACK + 1, o + 1)
            support = indicators.resample_line(indicators.fit_support_line(w), LOOKBACK, self.SAMPLES)
            resistance = indicators.resample_line(
                indicators.fit_resistance_line(w), LOOKBACK, self.SAMPLES
            )
            text = prompt_prefix.build_prompt(w, support, resistance, self.prompt_cfg)
            digest.update(text.encode())
            if o in self.prompt_samples:
                sampled[o] = text
        records = evaluation.walk_forward(self.series, self.external, self.gate, self.rules, self.eval_cfg)
        sweep = [
            (t, evaluation.summarize(evaluation.apply_threshold(records, self.gate, t), "text"))
            for t in self.THRESHOLDS
        ]
        return digest.hexdigest(), sampled, records, sweep

    def identity(self, output):
        digest, _, records, sweep = output
        decisions = [(r.origin_index, r.decision.score, r.decision.executed) for r in records]
        return digest, decisions, [(t, ck.rows_tuples(rows)) for t, rows in sweep]

    def verify(self, checks: ck.Checks) -> None:
        _, sampled, records, sweep = self.first
        checks.check(same_gate(self.gate, self.trained), f"{self.name}: gate JSON does not round-trip")
        checks.check(
            [r.origin_index + self.offset for r in records] == self.global_origins,
            f"{self.name}: records are not the loop's origins",
        )
        for r in ck.sample(self.rng, records, ORACLE_SAMPLES):
            path = self.forecasts[r.origin_index + self.offset][0]
            checks.check(
                list(r.forecast.path) == path,
                f"{self.name}: origin {r.origin_index + self.offset} joined the wrong forecast",
            )
        self.check_prompts(checks, sampled)
        self.check_outputs(checks, records, sweep)
        ck.check_monotone(checks, sweep, self.name)
        ck.check_oracle(
            checks, self.oracles, self.market,
            [(r.origin_index + self.offset, r.verdicts[0]) for r in ck.sample(self.rng, records, ORACLE_SAMPLES)],
            rule_engine.DEFAULT_LOOKBACK, self.name,
        )
        ck.check_envelopes(
            checks, self.market, self.envelope_fits(self.series, self.local_origins, self.offset), self.name
        )
        at_gate = dict(sweep)[self.gate.threshold]
        text = evaluation.report(at_gate, "csv")
        parsed = evaluation.parse_report_csv(text)
        checks.check(evaluation.report(parsed, "csv") == text, f"{self.name}: report CSV does not round-trip")
        ck.check_rows(checks, parsed, ck.rows_tuples(at_gate), f"{self.name} report")

        planted = ck.Checks()
        self.check_outputs(planted, flip_one(records, len(records) // 2, flip_record), sweep)
        self.planted_failures = planted.failed
        checks.check(planted.failed > 0, f"{self.name}: planted wrong executed flag went unnoticed")

    def check_outputs(self, checks, records, sweep) -> None:
        ck.check_decisions(
            checks, ck.record_decisions(records, self.offset), self.gate.threshold, self.name
        )
        triples = ck.check_directions(checks, self.market.closes, records, HORIZON, self.offset)
        scores = [r.decision.score for r in records]
        for t, rows in sweep:
            expected = ck.expected_summary(
                [(p, r, s >= t) for (p, r, _), s in zip(triples, scores)], "text"
            )
            ck.check_rows(checks, rows, expected, f"{self.name} sweep at {t}")
        at_gate = dict(sweep)[self.gate.threshold]
        ck.check_rows(checks, at_gate, ck.expected_summary(triples, "text"), f"{self.name} decisions")

    def check_prompts(self, checks, sampled) -> None:
        def fmt(x):
            s = f"{x:.1f}"
            return s.rstrip("0").rstrip(".") if "." in s else s

        checks.check(len(sampled) == len(self.prompt_samples), f"{self.name}: sampled prompts missing")
        for o, text in sampled.items():
            closes = self.market.closes[o + self.offset - LOOKBACK + 1 : o + self.offset + 1]
            expected = (
                f"minimum value of {fmt(closes.min())} and a maximum value of "
                f"{fmt(closes.max())}, with an average value of {fmt(closes.mean())}."
            )
            checks.check(
                expected in text and f"next {HORIZON} steps given the previous {LOOKBACK} steps" in text,
                f"{self.name}: prompt of origin {o + self.offset} has wrong statistics",
            )


class Live(Workload):
    """One client asking for one decision per new candle, on a 100k-candle history."""

    name = "live_100k"
    CANDLES = 100_000
    PREFIX = 3_000
    DECISIONS = 10_000

    def __init__(self, out, seed, oracles):
        super().__init__(out, seed, oracles)
        self.market = make_market(seed, self.CANDLES)
        self.write("market.csv", market_csv(self.market))
        self.write("train.csv", market_csv(self.market.slice(0, self.PREFIX)))
        self.gate_path = out / "gate.json"
        last = self.CANDLES - HORIZON  # one past the last origin with a realized label
        self.decision_origins = list(range(last - self.DECISIONS, last))
        self.origins = self.DECISIONS
        self.latencies = []
        self.rules = [rule_engine.bottoming_tail_rule()]
        self.train_cfg = evaluation.EvalConfig(
            lookback=LOOKBACK, horizon=HORIZON, train_fraction=0.95, required_rules=(RULE,)
        )
        # walk_forward over exactly the decision origins, for the differential check.
        all_origins = last - (LOOKBACK - 1)
        n_train = all_origins - self.DECISIONS
        self.replay_cfg = evaluation.EvalConfig(
            lookback=LOOKBACK, horizon=HORIZON,
            train_fraction=(n_train + 0.5) / all_origins, required_rules=(RULE,),
        )

    def setup(self) -> None:
        self.series = market_data.parse_csv(self.read("market.csv"), symbol="BENCH")
        train_series = market_data.parse_csv(self.read("train.csv"), symbol="BENCH")
        self.trained = evaluation.train_gate_on_series(
            train_series, forecaster.drift_forecast, self.rules, self.train_cfg
        )
        self.gate_path.write_text(reliability_gate.model_to_json(self.trained), encoding="utf-8")
        self.gate = reliability_gate.model_from_json(self.gate_path.read_text(encoding="utf-8"))
        # The first decision builds lazily cached per-series state; a live
        # service pays that before its first request, so set-up pays it here.
        self.decide(self.decision_origins[0])

    def decide(self, origin: int):
        w = self.series.window(origin - LOOKBACK + 1, origin + 1)
        forecast = forecaster.drift_forecast(w, HORIZON)
        verdicts = [rule_engine.evaluate_rule(rule, w) for rule in self.rules]
        x = reliability_gate.extract_features(w, forecast, verdicts)
        s = reliability_gate.score(self.gate, x)
        return reliability_gate.decide(s, self.gate, verdicts, (RULE,)), verdicts

    def job(self):
        clock = perf_counter
        latencies = self.latencies
        decisions = []
        for origin in self.decision_origins:
            start = clock()
            decision, verdicts = self.decide(origin)
            latencies.append(clock() - start)
            decisions.append((origin, decision.score, decision.executed, verdicts[0]))
        return decisions

    def identity(self, decisions):
        return [(o, s, e) for o, s, e, _ in decisions]

    def verify(self, checks: ck.Checks) -> None:
        decisions = self.first
        checks.check(same_gate(self.gate, self.trained), f"{self.name}: gate JSON does not round-trip")

        records = evaluation.walk_forward(
            self.series, forecaster.drift_forecast, self.gate, self.rules, self.replay_cfg
        )
        self.check_outputs(checks, decisions, records)
        ck.check_oracle(
            checks, self.oracles, self.market,
            [(o, v) for o, _, _, v in ck.sample(self.rng, decisions, ORACLE_SAMPLES)],
            rule_engine.DEFAULT_LOOKBACK, self.name,
        )
        ck.check_envelopes(
            checks, self.market, self.envelope_fits(self.series, self.decision_origins), self.name
        )

        planted = ck.Checks()
        flip = lambda d: (d[0], d[1], not d[2], d[3])
        self.check_outputs(planted, flip_one(decisions, len(decisions) // 2, flip), records)
        self.planted_failures = planted.failed
        checks.check(planted.failed > 0, f"{self.name}: planted wrong executed flag went unnoticed")

    def check_outputs(self, checks, decisions, records) -> None:
        ck.check_decisions(
            checks, [(o, s, e, v.passed) for o, s, e, v in decisions], self.gate.threshold, self.name
        )
        checks.check(
            [r.origin_index for r in records] == [o for o, _, _, _ in decisions],
            f"{self.name}: walk_forward replay covers other origins than the live loop",
        )
        for (o, s, e, _), r in zip(decisions, records):
            checks.check(
                s == r.decision.score and e == r.decision.executed,
                f"{self.name}: origin {o} decided ({s!r}, {e}) live but "
                f"({r.decision.score!r}, {r.decision.executed}) in walk_forward",
            )


WORKLOADS = {w.name: w for w in (Backtest, LlmLoop, Live)}
