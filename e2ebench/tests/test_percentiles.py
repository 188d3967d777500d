"""Percentiles at sample-count edges."""

import pytest

from percentiles import median, percentile


def test_single_sample_is_every_percentile():
    for p in (0, 50, 90, 99, 100):
        assert percentile([4.0], p) == 4.0


def test_two_samples_interpolate():
    assert percentile([1.0, 3.0], 50) == 2.0
    assert percentile([3.0, 1.0], 0) == 1.0
    assert percentile([3.0, 1.0], 100) == 3.0
    assert percentile([1.0, 3.0], 90) == pytest.approx(2.8)


def test_odd_and_even_medians():
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_rank_lands_on_a_sample():
    values = [float(v) for v in range(101)]
    assert percentile(values, 99) == 99.0
    assert percentile(values, 90) == 90.0


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)
