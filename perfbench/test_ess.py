"""The benchmark's ESS estimator against AR(1) series of known ESS.

    python3 -m pytest perfbench

A stationary AR(1) series x_t = phi x_{t-1} + e_t has integrated
autocorrelation time (1 + phi) / (1 - phi), so n draws carry an ESS of
n (1 - phi) / (1 + phi).
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from ess import bulk_ess


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    burn = 1000
    noise = np.random.default_rng(seed).standard_normal(n + burn)
    return lfilter([1.0], [1.0, -phi], noise)[burn:]


@pytest.mark.parametrize("phi", [-0.3, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1])
def test_ar1_ess_matches_theory(phi, seed):
    n = 100_000
    expected = n * (1 - phi) / (1 + phi)
    assert bulk_ess(ar1(phi, n, seed)) == pytest.approx(expected, rel=0.1)


def test_rank_normalization_ignores_monotone_transforms():
    x = ar1(0.5, 10_000, 2)
    assert bulk_ess(np.exp(x)) == bulk_ess(x)


def test_constant_draws_are_rejected():
    with pytest.raises(ValueError):
        bulk_ess(np.ones(100))
