"""Selective-execution forecasting engine for OHLCV series.

A primary forecaster (M1) makes a directional call, a trainable reliability
gate (M2) scores how likely that call is to be right, and a symbolic
candlestick rule engine supplies explainable veto conditions.  A forecast is
executed only when the gate and the required rules both agree, and every
decision carries a human-readable justification trace.
"""

from .market_data import (
    ParseError,
    Series,
    ValidationError,
    Window,
    parse_csv,
)
from .indicators import (
    TrendLine,
    fit_resistance_line,
    fit_support_line,
    resample_line,
)
from .rule_engine import (
    InsufficientHistoryError,
    Predicate,
    Rule,
    RuleVerdict,
    TraceEntry,
    bottoming_tail_rule,
    evaluate_rule,
    explain,
)
from .forecaster import (
    Forecast,
    Forecasts,
    Side,
    drift_forecast,
    linreg_forecast,
    load_external_forecasts,
    naive_forecast,
    save_external_forecasts,
)
from .reliability_gate import (
    FeatureError,
    GateDecision,
    GateModel,
    TrainingError,
    decide,
    extract_features,
    feature_names,
    model_from_json,
    model_to_json,
    score,
    train,
)
from .prompt_prefix import BITCOIN_DOMAIN, PromptConfig, build_prompt
from .evaluation import (
    EvalConfig,
    EvalRecord,
    EvalTable,
    MetricsRow,
    apply_threshold,
    f1_score,
    report,
    summarize,
    train_gate_on_series,
    walk_forward,
)

__version__ = "0.1.0"
