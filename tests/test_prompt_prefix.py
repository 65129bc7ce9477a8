import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlegate.indicators import TrendLine, fit_resistance_line, fit_support_line, resample_line
from candlegate.prompt_prefix import (
    BITCOIN_DOMAIN,
    PromptConfig,
    build_prompt,
)

from conftest import make_series
from oracles import reference_prompt

# Trend-line parameters of the bundled Bitcoin demo window, on the 6-sample
# axis.  Sampling and rounding them must reproduce the golden sequences.
DEMO_SUPPORT = TrendLine(slope=2373.774, intercept=26511.034, kind="support")
DEMO_RESISTANCE = TrendLine(slope=2373.773, intercept=38130.864, kind="resistance")

GOLDEN_PROMPT = (
    "This dataset is the Bitcoin daily price chart.\n"
    "Below is the information about the input time series:\n"
    "\n"
    f"[Domain]: {BITCOIN_DOMAIN}\n"
    "[Instructions]: Predict the data for the next 7 steps given the previous 110 steps.\n"
    "\n"
    "[Statistics]: The input has a minimum value of 26511.2 and a maximum "
    "value of 49011.4, with an average value of 39621.6.\n"
    "Your predictions should take into account the behaviour that Bitcoin "
    "prices tend to revert when approaching these support and resistance levels.\n"
    "\n"
    "1. Support Line: This sequence represents the lower boundary of the "
    "Bitcoin price range over the considered period. Here is the support "
    "line : [26511.03 28884.81 31258.58 33632.36 36006.13 38379.9]. "
    "It is by definition a line.\n"
    "\n"
    "2. Resistance Line: This sequence represents the upper boundary of the "
    "Bitcoin price range over the considered period. Here is the resistance "
    "line : [38130.86 40504.64 42878.41 45252.18 47625.96 49999.73]. "
    "It is by definition a line.\n"
)


def _demo_config(**overrides):
    params = dict(
        asset="Bitcoin", domain=BITCOIN_DOMAIN, lookback=110, horizon=7, line_samples=6
    )
    params.update(overrides)
    return PromptConfig(**params)


def test_golden_prompt_bytes(btc_series):
    w = btc_series.window(0, len(btc_series))
    text = build_prompt(w, DEMO_SUPPORT, DEMO_RESISTANCE, _demo_config())
    assert text == GOLDEN_PROMPT


def test_instructions_line_tracks_config(btc_series):
    w = btc_series.window(0, len(btc_series))
    text = build_prompt(w, DEMO_SUPPORT, DEMO_RESISTANCE, _demo_config(horizon=3))
    assert "[Instructions]: Predict the data for the next 3 steps given the previous 110 steps." in text


def test_prompt_is_deterministic(btc_series):
    w = btc_series.window(0, len(btc_series))
    cfg = _demo_config()
    assert build_prompt(w, DEMO_SUPPORT, DEMO_RESISTANCE, cfg) == build_prompt(
        w, DEMO_SUPPORT, DEMO_RESISTANCE, cfg
    )


def test_section_order_is_fixed(btc_series):
    w = btc_series.window(0, len(btc_series))
    text = build_prompt(w, DEMO_SUPPORT, DEMO_RESISTANCE, _demo_config())
    markers = [
        "This dataset is",
        "[Domain]:",
        "[Instructions]:",
        "[Statistics]:",
        "1. Support Line:",
        "2. Resistance Line:",
    ]
    positions = [text.index(m) for m in markers]
    assert positions == sorted(positions)


def test_flat_line_sequence_trims_zeros(btc_series):
    w = btc_series.window(0, len(btc_series))
    for intercept, value in ((7.0, "7"), (100.0, "100"), (38379.90, "38379.9"), (38379.905, "38379.9")):
        flat = TrendLine(slope=0.0, intercept=intercept, kind="support")
        text = build_prompt(w, flat, DEMO_RESISTANCE, _demo_config(line_samples=3))
        assert f"[{value} {value} {value}]" in text


def test_config_validation():
    with pytest.raises(ValueError):
        _demo_config(lookback=0)
    with pytest.raises(ValueError):
        _demo_config(horizon=0)
    with pytest.raises(ValueError):
        _demo_config(line_samples=0)


TEXT = st.text("{}%()\n 05.sxd BitcoinΩ比特币\t\\", max_size=24)  # format and %-format syntax


@st.composite
def prompt_cases(draw):
    """A random window, a config, and lines fitted to the window or drawn freely."""
    lookback = draw(st.integers(1, 257))
    samples = draw(st.integers(1, 12))
    start_price = draw(st.sampled_from([0.013, 1.0, 100.0, 39621.6, 2.5e6]))
    offset = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = make_series(rng, lookback + offset, start_price).window(offset, offset + lookback)
    if lookback >= 2 and draw(st.booleans()):
        support = resample_line(fit_support_line(w), lookback, samples)
        resistance = resample_line(fit_resistance_line(w), lookback, samples)
    else:
        line = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e6, 1e6))
        (s_slope, s_icpt), (r_slope, r_icpt) = draw(line), draw(line)
        support = TrendLine(slope=s_slope, intercept=s_icpt, kind="support")
        resistance = TrendLine(slope=r_slope, intercept=r_icpt, kind="resistance")
    cfg = PromptConfig(
        asset=draw(TEXT), domain=draw(TEXT), lookback=lookback,
        horizon=draw(st.integers(1, 30)), line_samples=samples,
    )
    return w, support, resistance, cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(prompt_cases())
def test_build_prompt_matches_the_reference_renderer(case):
    w, support, resistance, cfg = case
    expected = reference_prompt(
        w.closes.copy(), (support.slope, support.intercept), (resistance.slope, resistance.intercept),
        cfg.asset, cfg.domain, cfg.lookback, cfg.horizon, cfg.line_samples,
    )
    assert build_prompt(w, support, resistance, cfg) == expected
    assert build_prompt(w, support, resistance, cfg) == expected  # from the rendered segments

