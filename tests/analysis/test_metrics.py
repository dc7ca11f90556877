"""Tests for fairness and deviation metrics."""

import pytest

from repro.analysis import (inversions, jains_index, kendall_tau_distance,
                            max_deviation, mean_deviation,
                            positionwise_deviation)


def test_jains_index_perfectly_fair():
    assert jains_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jains_index_maximally_unfair():
    assert jains_index([10, 0, 0, 0]) == pytest.approx(0.25)


def test_jains_index_degenerate():
    assert jains_index([]) == 1.0
    assert jains_index([0, 0]) == 1.0


def test_positionwise_deviation():
    assert positionwise_deviation("abc", "abc") == [0, 0, 0]
    assert positionwise_deviation("abc", "cab") == [1, 1, 2]


def test_deviation_requires_permutation():
    with pytest.raises(ValueError):
        positionwise_deviation(["a"], ["b"])


def test_max_and_mean_deviation():
    assert max_deviation("abcd", "dcba") == 3
    assert mean_deviation("abcd", "dcba") == pytest.approx(2.0)
    assert max_deviation([], []) == 0
    assert mean_deviation([], []) == 0.0


def test_inversions_and_kendall_tau():
    assert inversions("abc", "abc") == 0
    assert inversions("abc", "cba") == 3
    assert kendall_tau_distance("abc", "cba") == pytest.approx(1.0)
    assert kendall_tau_distance("abc", "abc") == 0.0
    assert kendall_tau_distance("a", "a") == 0.0
