"""Tests for the discovery-probability function and its helpers.

Frozen reference values were computed with an independent truncated
series built on scipy's Poisson pmf (see the acceptance suite for the
oracle itself).
"""

import math
import signal
import time

import pytest

from fairmon import ConfidenceInterval, SubExpParams, kernels
from fairmon.discovery import (
    MAX_RATE,
    eta,
    eta_interval,
    poisson_subexp_params,
)
from fairmon.errors import ConfigError
from oracles import check_parameter_floor, eta_full_prefix


class TestEta:

    def test_single_demand_closed_form(self):
        # y=1 reduces to E[1/(X+1)] = (1 - e^{-lam}) / lam
        for lam in (0.1, 1.0, 4.0, 30.0):
            assert eta(1, lam) == pytest.approx(-math.expm1(-lam) / lam,
                                                abs=1e-15)

    def test_frozen_oracle_values(self):
        cases = {
            (1, 1.0): 0.6321205588285577,
            (3, 2.5): 0.8347217561236503,
            (6, 0.5): 0.9999978636179128,
            (10, 20.0): 0.49958955289498125,
            # series expansion: 1 - lam^2/6 + O(lam^3) at lam = 1e-6
            (2, 1e-6): 0.9999999999998334,
        }
        for (y, lam), want in cases.items():
            assert eta(y, lam) == pytest.approx(want, abs=1e-12)

    def test_large_capacity_saturates_at_one(self):
        assert eta(50, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_rate_approaches_one(self):
        assert eta(5, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_decreasing_in_rate(self):
        # mathematically strictly decreasing; at double precision values
        # for lam far below y all round to 1.0, so ties are allowed
        # there and strictness is required once the value leaves 1.0
        for y in (1, 2, 7, 20):
            values = [eta(y, 0.05 * i) for i in range(1, 400)]
            for a, b in zip(values, values[1:]):
                assert b <= a
                if a < 1.0 - 1e-9:
                    assert b < a

    def test_kernel_matches_full_prefix_loop_bit_for_bit(self):
        ys = [1, 2, 3, 5, 8, 13, 50, 100, 333, 699, 700, 701, 1000, 2500,
              10 ** 4]
        lams = [1e-300, 1e-9, 0.5, 1.0, 8.0, 37.5, 100.0, 250.0, 699.0,
                MAX_RATE]
        for y in ys:
            for lam in lams:
                got, want = kernels.eta(y, lam), eta_full_prefix(y, lam)
                assert got.hex() == want.hex(), (y, lam)

    def test_kernel_work_is_bounded_whatever_the_units(self):
        # The full prefix loop would run 10**12 times; stop it after 5 s.
        def stop(signum, frame):
            raise TimeoutError("kernels.eta(10**12, 8.0) still running")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            start = time.perf_counter()
            assert kernels.eta(10 ** 12, 8.0) == 1.0
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 0.5

    def test_range_is_unit_interval(self):
        for y in (1, 5, 40):
            for lam in (1e-9, 0.5, 10.0, 700.0):
                assert 0.0 < eta(y, lam) <= 1.0

    def test_supported_rate_ceiling(self):
        assert eta(3, MAX_RATE) > 0.0
        with pytest.raises(ConfigError):
            eta(3, MAX_RATE + 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            eta(0, 1.0)
        with pytest.raises(ConfigError):
            eta(-2, 1.0)
        with pytest.raises(ConfigError):
            eta(3, 0.0)
        with pytest.raises(ConfigError):
            eta(3, -0.5)


class TestEtaInterval:

    def test_endpoints_swap(self):
        rate_ci = ConfidenceInterval(2.0, 5.0, 0.9)
        out = eta_interval(4, rate_ci)
        assert out.lo == pytest.approx(eta(4, 5.0), abs=1e-15)
        assert out.hi == pytest.approx(eta(4, 2.0), abs=1e-15)
        assert out.confidence == 0.9

    def test_degenerate_rate_interval(self):
        rate_ci = ConfidenceInterval(3.0, 3.0, 0.95)
        out = eta_interval(2, rate_ci)
        assert out.lo == out.hi == pytest.approx(eta(2, 3.0), abs=1e-15)

    def test_rejects_nonpositive_lower_rate(self):
        with pytest.raises(ConfigError):
            eta_interval(2, ConfidenceInterval(0.0, 1.0, 0.9))
        with pytest.raises(ConfigError):
            eta_interval(2, ConfidenceInterval(-1.0, 1.0, 0.9))


class TestPoissonTailParams:

    def test_values(self):
        p = poisson_subexp_params(3.0)
        assert (p.sigma_sq, p.nu) == (6.0, 2.0)
        p = poisson_subexp_params(1.0)
        assert (p.sigma_sq, p.nu) == (2.0, 2.0)

    def test_type(self):
        assert isinstance(poisson_subexp_params(1.0), SubExpParams)

    def test_rejects_nonpositive_rate_bound(self):
        with pytest.raises(ConfigError):
            poisson_subexp_params(0.0)


class TestParameterFloor:

    def test_empty_history_is_fine(self):
        assert check_parameter_floor(0.1, ()) is True

    def test_stays_above_floor(self):
        assert check_parameter_floor(0.1, (-0.05, -0.04)) is True

    def test_prefix_dips_below_floor(self):
        assert check_parameter_floor(0.1, (-0.05, -0.06)) is False

    def test_recovery_does_not_excuse_a_dip(self):
        # the running rate visits zero even though the net shift is fine
        assert check_parameter_floor(0.1, (-0.1, 0.5)) is False

    def test_exact_floor_counts_as_violation(self):
        # the rate must stay strictly positive
        assert check_parameter_floor(0.1, (-0.05, -0.05)) is False
