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
    serialize_csv,
)
from .indicators import (
    TrendLine,
    WindowStats,
    fit_resistance_line,
    fit_support_line,
    realized_volatility,
    resample_line,
    sample_line,
    window_stats,
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
    Side,
    direction_of,
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
    meta_label,
    model_from_json,
    model_to_json,
    score,
    train,
)
from .prompt_prefix import BITCOIN_DOMAIN, PromptConfig, build_prompt
from .evaluation import (
    ConfusionMatrix,
    EvalConfig,
    EvalRecord,
    MetricsRow,
    apply_threshold,
    confusion,
    emit_forecast_trace,
    execution_rate,
    f1_score,
    metrics,
    report,
    summarize,
    train_gate_on_series,
    walk_forward,
)

__version__ = "0.1.0"
