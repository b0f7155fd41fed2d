import statistics

import pytest

import benchstats


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.8, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert benchstats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_spread_of_constant_values_is_zero():
    assert benchstats.spread([2.0] * 5) == 0.0


def test_spread_rejects_degenerate_input():
    with pytest.raises(ValueError):
        benchstats.spread([1.0])
    with pytest.raises(ValueError):
        benchstats.spread([-1.0, 0.0, 1.0])


def test_summarize_reports_quartiles():
    s = benchstats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    assert s["q1"] <= s["median"] <= s["q3"]
