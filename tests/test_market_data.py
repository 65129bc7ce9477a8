import numpy as np
import pytest

from candlegate.market_data import (
    Candle,
    ParseError,
    Series,
    ValidationError,
    parse_csv,
    pct_return,
    serialize_csv,
    validate,
)

from conftest import make_series

HEADER = "timestamp,open,high,low,close,volume"


def test_parse_single_row():
    text = f"{HEADER}\n2025-07-08,108000,109000,107000,108100,123.4\n"
    series = parse_csv(text, symbol="BTC")
    assert len(series) == 1
    c = series.candles[0]
    assert (c.open, c.high, c.low, c.close, c.volume) == (108000, 109000, 107000, 108100, 123.4)
    assert series.symbol == "BTC"
    assert series.timestamp_format == "iso"


def test_parse_rejects_high_below_low():
    text = f"{HEADER}\n2025-07-08,100,90,105,100,1\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_csv(text)


def test_parse_rejects_wrong_arity():
    text = f"{HEADER}\n2025-07-08,100,101,99\n"
    with pytest.raises(ParseError, match="line 2.*6 fields"):
        parse_csv(text)


def test_parse_rejects_non_numeric():
    text = f"{HEADER}\n2025-07-08,100,101,99,abc,1\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_csv(text)


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_csv("date,o,h,l,c,v\n2025-07-08,1,1,1,1,1\n")


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="empty input"):
        parse_csv("")
    with pytest.raises(ParseError, match="empty input"):
        parse_csv(f"{HEADER}\n")


def test_parse_rejects_mixed_timestamp_formats():
    text = f"{HEADER}\n2025-07-08,100,101,99,100,1\n1752000000,100,101,99,100,1\n"
    with pytest.raises(ParseError, match="line 3.*timestamp format"):
        parse_csv(text)


@pytest.mark.parametrize("second_day", ["2025-07-09", "2025-07-07"])
def test_parse_rejects_unordered_timestamps_with_line(second_day):
    text = (
        f"{HEADER}\n2025-07-08,100,101,99,100,1\n2025-07-09,100,101,99,100,1\n"
        f"{second_day},100,101,99,100,1\n"
    )
    with pytest.raises(ParseError, match="line 4.*strictly increasing"):
        parse_csv(text)


def test_parse_accepts_crlf():
    text = f"{HEADER}\r\n2025-07-08,100,101,99,100,1\r\n"
    assert len(parse_csv(text)) == 1


def test_ninety_row_roundtrip():
    rng = np.random.default_rng(0)
    series = make_series(rng, 90)
    text = serialize_csv(series)
    reparsed = parse_csv(text, symbol=series.symbol)
    assert len(reparsed) == 90
    assert all(
        reparsed.candles[i + 1].timestamp > reparsed.candles[i].timestamp for i in range(89)
    )
    assert reparsed == series
    # parse -> serialize -> parse is identity
    assert parse_csv(serialize_csv(reparsed), symbol=series.symbol) == reparsed


def test_iso_serialize_roundtrip():
    text = f"{HEADER}\n2025-07-08,108000.5,109000.25,107000.125,108100.0,123.4\n"
    series = parse_csv(text, symbol="s")
    assert parse_csv(serialize_csv(series), symbol="s") == series


def _candle(ts=0, o=100.0, h=101.0, l=99.0, c=100.0, v=1.0):
    return Candle(ts, o, h, l, c, v)


def test_validate_is_identity_on_valid_series():
    series = Series("X", (_candle(0), _candle(86400)), "epoch")
    assert validate(series) is series
    # idempotent
    assert validate(validate(series)) is series


def test_validate_rejects_equal_timestamps():
    series = Series("X", (_candle(0), _candle(0)), "epoch")
    with pytest.raises(ValidationError, match="candle 1.*strictly increasing"):
        validate(series)


def test_validate_rejects_out_of_order():
    series = Series("X", (_candle(86400), _candle(0)), "epoch")
    with pytest.raises(ValidationError, match="candle 1"):
        validate(series)


def test_validate_rejects_negative_volume():
    series = Series("X", (_candle(v=-1.0),), "epoch")
    with pytest.raises(ValidationError, match="volume"):
        validate(series)


def test_validate_rejects_empty_series():
    with pytest.raises(ValidationError, match="empty"):
        validate(Series("X", (), "epoch"))


def test_pct_return_hand_cases():
    series = Series("X", (_candle(0, c=100.0), _candle(86400, c=110.0)), "epoch")
    assert pct_return(series, 0, 1) == pytest.approx(0.10)
    flat = Series("X", (_candle(0, c=100.0), _candle(86400, c=100.0)), "epoch")
    assert pct_return(flat, 0, 1) == 0.0


def test_pct_return_bounds():
    series = Series("X", (_candle(0), _candle(86400)), "epoch")
    with pytest.raises(IndexError):
        pct_return(series, 0, 2)
    with pytest.raises(ValueError):
        pct_return(series, 1, 0)


def test_pct_return_all_pairs_against_formula():
    rng = np.random.default_rng(1)
    series = make_series(rng, 25)
    closes = [c.close for c in series.candles]
    for i in range(25):
        for j in range(i + 1, 25):
            expected = (closes[j] - closes[i]) / closes[i]
            got = pct_return(series, i, j)
            assert got == expected
            # sign property
            assert np.sign(got) == np.sign(closes[j] - closes[i])
