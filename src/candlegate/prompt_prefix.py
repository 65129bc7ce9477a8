"""Structured natural-language prefix generation for time-series models.

Produces the fixed-template context block (dataset line, domain paragraph,
instructions, window statistics, support/resistance sequences) that gets
prepended to a forecasting model's input.  Everything except the domain
paragraph is template-fixed so golden-file tests stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .indicators import TrendLine
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
_STATS_SPEC, _LINE_SPEC = f".{STATS_DECIMALS}f", f".{LINE_DECIMALS}f"


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

    @cached_property
    def _segments(self) -> tuple[str, ...]:
        """The fixed text, rendered once: the six pieces around the minimum, maximum,
        mean, support sequence and resistance sequence."""
        asset = self.asset
        return (
            f"This dataset is the {asset} daily price chart.\n"
            "Below is the information about the input time series:\n\n"
            f"[Domain]: {self.domain}\n"
            f"[Instructions]: Predict the data for the next {self.horizon} steps "
            f"given the previous {self.lookback} steps.\n\n"
            "[Statistics]: The input has a minimum value of ",
            " and a maximum value of ",
            ", with an average value of ",
            f".\nYour predictions should take into account the behaviour that {asset} prices "
            "tend to revert when approaching these support and resistance levels.\n\n"
            "1. Support Line: This sequence represents the lower boundary of the "
            f"{asset} price range over the considered period. Here is the support line : [",
            "]. It is by definition a line.\n\n"
            "2. Resistance Line: This sequence represents the upper boundary of the "
            f"{asset} price range over the considered period. Here is the resistance line : [",
            "]. It is by definition a line.\n",
        )


def _trimmed(s: str) -> str:
    return s.rstrip("0").rstrip(".") if "." in s else s


def _sequence(line: TrendLine, samples: int) -> str:
    intercept, slope = line.intercept, line.slope
    return " ".join([_trimmed(format(intercept + slope * k, _LINE_SPEC)) for k in range(samples)])


def build_prompt(
    w: Window, support: TrendLine, resistance: TrendLine, cfg: PromptConfig
) -> str:
    """Render the full prefix text for one window.

    The trend lines are expected on the prompt's sampling axis (see
    indicators.resample_line for converting a window-fitted line); each is
    emitted as cfg.line_samples evenly progressing values.  Only the statistics
    and the sequences are rendered per call; the rest is rendered once per config.
    """
    closes = w.closes
    head, at_max, at_mean, at_support, at_resistance, tail = cfg._segments
    # The bits of closes.min(), .max() and .mean(), without their Python wrappers.
    return "".join((
        head, _trimmed(format(np.minimum.reduce(closes), _STATS_SPEC)),
        at_max, _trimmed(format(np.maximum.reduce(closes), _STATS_SPEC)),
        at_mean, _trimmed(format(np.add.reduce(closes) / len(closes), _STATS_SPEC)),
        at_support, _sequence(support, cfg.line_samples),
        at_resistance, _sequence(resistance, cfg.line_samples),
        tail,
    ))
