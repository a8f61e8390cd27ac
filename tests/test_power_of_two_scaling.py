"""Exactness under power-of-two scaling.

A beam 4^k times as bright has every sample exactly 2^k times as large, so
each sum, square, transform and ratio of the estimators scales by a power of
two: g2, the sweep and the stationarity test give the same bits, and the
spectrum exactly 4^k times the values and errors, for as long as the answer
is a normal float.  Every comparison here is ==.
"""

import numpy as np
import pytest

from beamsim.fieldgen import BeamModelSpec, generate_ensemble
from beamsim.photonics import filtered_laser_sweep, g2
from beamsim.spectral import spectrum, stationarity_test


def thermal(k):
    return BeamModelSpec(family="thermal", nu=100.0 * 4.0**k, gamma=1.0)


def jittered(k):
    return BeamModelSpec(family="jittered_laser", nu=100.0 * 4.0**k, gamma=1.0,
                         jitter_band=100.0, jitter_corr_time=10.0)


def test_g2_is_bit_identical():
    def estimate(k):
        return g2(generate_ensemble(thermal(k), 0.01, 2000, 1, 20), [0.0, 0.05, 0.5])

    base = estimate(0)
    for k in range(-200, 201, 50):
        scaled = estimate(k)
        assert np.array_equal(scaled.values, base.values), k
        assert np.array_equal(scaled.std_errors, base.std_errors), k


def test_sweep_is_bit_identical():
    def sweep(k):
        return filtered_laser_sweep(jittered(k), [100.0, 2.0], 1e-3, 20000, 3, 4)

    base = sweep(0)
    for k in (-200, -100, 100, 200):
        assert sweep(k) == base, k


def test_spectrum_scales_by_4_to_the_k():
    def estimate(k):
        return spectrum(generate_ensemble(thermal(k), 0.01, 2000, 1, 100))

    base = estimate(0)
    for k in (-200, -100, 100, 200, 250):
        scaled = estimate(k)
        assert np.array_equal(scaled.values, base.values * 4.0**k), k
        assert np.array_equal(scaled.std_errors, base.std_errors * 4.0**k), k


@pytest.mark.parametrize("j", [-1000, -600, -540, -532, 520, 540, 1000])
def test_stationarity_is_unchanged(j):
    """The F statistic and both p-values are those of W; the independence
    statistic is that of W times 4^j, 0 or inf where it leaves the floats."""
    W = np.random.default_rng(2).random((1000, 8))
    base = stationarity_test(W, n_permutations=199)
    scaled = stationarity_test(np.ldexp(W, j), n_permutations=199)
    assert (scaled.position_statistic, scaled.p_position, scaled.p_independence) == (
        base.position_statistic, base.p_position, base.p_independence)
    with np.errstate(over="ignore"):
        assert scaled.independence_statistic == np.ldexp(base.independence_statistic, 2 * j)
