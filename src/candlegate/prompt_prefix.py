"""Structured natural-language prefix generation for time-series models.

Produces the fixed-template context block (dataset line, domain paragraph,
instructions, window statistics, support/resistance sequences) that gets
prepended to a forecasting model's input.  Everything except the domain
paragraph is template-fixed so golden-file tests stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .indicators import TrendLine, sample_line, window_stats
from .market_data import Window

# Default domain paragraph for the bundled Bitcoin demo configuration.
BITCOIN_DOMAIN = (
    "The bitcoin price is a highly volatile price chart which is globally on "
    "an upward trend although it oscillates between bull and bear market "
    "cycles that last around 1 to 2 years. Each data point indicates the OHLC "
    "price of Bitcoin as well as the volume."
)

STATS_DECIMALS = 1
LINE_DECIMALS = 2


@dataclass(frozen=True)
class PromptConfig:
    asset: str
    domain: str
    lookback: int
    horizon: int
    line_samples: int = 6

    def __post_init__(self):
        if self.lookback < 1 or self.horizon < 1 or self.line_samples < 1:
            raise ValueError("lookback, horizon and line_samples must be >= 1")


def format_number(x: float, decimals: int) -> str:
    """Fixed-point rendering with trailing zeros (and a bare point) trimmed."""
    s = f"{x:.{decimals}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


def _sequence(values: list[float], decimals: int) -> str:
    return "[" + " ".join(format_number(v, decimals) for v in values) + "]"


def build_prompt(
    w: Window, support: TrendLine, resistance: TrendLine, cfg: PromptConfig
) -> str:
    """Render the full prefix text for one window.

    The trend lines are expected on the prompt's sampling axis (see
    indicators.resample_line for converting a window-fitted line); each is
    emitted as cfg.line_samples evenly progressing values.
    """
    stats = window_stats(w)
    fmt = lambda v: format_number(v, STATS_DECIMALS)
    support_seq = _sequence(sample_line(support, cfg.line_samples), LINE_DECIMALS)
    resistance_seq = _sequence(sample_line(resistance, cfg.line_samples), LINE_DECIMALS)

    lines = [
        f"This dataset is the {cfg.asset} daily price chart.",
        "Below is the information about the input time series:",
        "",
        f"[Domain]: {cfg.domain}",
        f"[Instructions]: Predict the data for the next {cfg.horizon} steps "
        f"given the previous {cfg.lookback} steps.",
        "",
        f"[Statistics]: The input has a minimum value of {fmt(stats.min)} and "
        f"a maximum value of {fmt(stats.max)}, with an average value of "
        f"{fmt(stats.mean)}.",
        f"Your predictions should take into account the behaviour that "
        f"{cfg.asset} prices tend to revert when approaching these support "
        f"and resistance levels.",
        "",
        f"1. Support Line: This sequence represents the lower boundary of the "
        f"{cfg.asset} price range over the considered period. Here is the "
        f"support line : {support_seq}. It is by definition a line.",
        "",
        f"2. Resistance Line: This sequence represents the upper boundary of "
        f"the {cfg.asset} price range over the considered period. Here is the "
        f"resistance line : {resistance_seq}. It is by definition a line.",
    ]
    return "\n".join(lines) + "\n"
