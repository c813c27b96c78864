import math

import numpy as np
import pytest

from dyntf import convergence_rounds, h_score, mae, rmse


def _pairs(residuals):
    # predicted = actual - residual, so actual - predicted == residual
    r = np.asarray(residuals, dtype=float)
    actual = np.linspace(1.0, 2.0, r.size)
    return np.column_stack((actual, actual - r))


def test_rmse_hand_values():
    assert rmse(_pairs([1.0, -1.0])) == 1.0
    assert rmse(_pairs([0.0, 0.0, 0.0])) == 0.0
    assert rmse(_pairs([3.0, 4.0])) == pytest.approx(math.sqrt(25.0 / 2.0), rel=1e-15)


def test_mae_hand_values():
    assert mae(_pairs([1.0, -1.0])) == 1.0
    assert mae(_pairs([0.0])) == 0.0
    assert mae(_pairs([3.0, 4.0])) == 3.5


def test_h_score_hand_values():
    assert h_score(_pairs([0.0, 0.0])) == 0.0
    # single residual of magnitude 1: sqrt(1/4) + 1/2
    assert h_score(_pairs([1.0])) == 1.0
    assert h_score(_pairs([-1.0])) == 1.0


def test_h_score_from_rmse_02_mae_01():
    # residuals (0.4, 0, 0, 0) give rmse 0.2 and mae 0.1, so h = 0.15
    p = _pairs([0.4, 0.0, 0.0, 0.0])
    assert rmse(p) == pytest.approx(0.2, rel=1e-12)
    assert mae(p) == pytest.approx(0.1, rel=1e-12)
    assert h_score(p) == pytest.approx(0.15, rel=1e-12)


def test_h_is_mean_of_rmse_and_mae():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        p = _pairs(rng.normal(0.0, rng.uniform(0.01, 2.0), size=n))
        assert abs(h_score(p) - (rmse(p) + mae(p)) / 2.0) <= 1e-12
        assert rmse(p) >= mae(p)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    p = _pairs(rng.normal(size=25))
    shuffled = p[rng.permutation(25)]
    assert rmse(p) == rmse(shuffled)
    assert mae(p) == mae(shuffled)
    assert h_score(p) == h_score(shuffled)


def test_empty_and_malformed_inputs_rejected():
    with pytest.raises(ValueError):
        rmse([])
    with pytest.raises(ValueError):
        mae(np.empty((0, 2)))
    with pytest.raises(ValueError):
        h_score([])
    with pytest.raises(ValueError):
        rmse([[1.0, 2.0, 3.0]])  # three columns


def test_convergence_rounds_hand_values():
    assert convergence_rounds([1.0, 0.5, 0.4999999], 1e-5) == 3
    assert convergence_rounds([0.7, 0.7, 0.7, 0.7], 1e-5) == 2
    # strictly decreasing by 0.1: never inside threshold
    vals = [1.0 - 0.1 * t for t in range(6)]
    assert convergence_rounds(vals, 1e-5) == 6


def test_convergence_rounds_short_series():
    assert convergence_rounds([0.4], 1e-5) == 1
    with pytest.raises(ValueError):
        convergence_rounds([], 1e-5)
