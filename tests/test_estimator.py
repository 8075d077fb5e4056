"""Unit tests for the shift-corrected mean estimator and interval tools.

Expected values come from the direct (non-streaming) form of the
estimator, evaluated by hand or by the `_direct_estimate` helper below,
never from the implementation under test.
"""

import math
import random

import pytest

from fairmon import (
    ConfidenceInterval,
    ShiftedMeanEstimator,
    SubExpParams,
    azuma_epsilon,
    interval_sub,
)
from fairmon.errors import ConfigError
from fairmon.intervals import trusted_interval
from oracles import interval_map_decreasing


def _direct_estimate(xs, shifts):
    """Batch re-derivation of the streaming estimate.

    With cumulative shift D_s applied after step s, the initial mean
    estimate is the average of the de-shifted samples x_s - D_{s-1},
    and the step-t target adds back D_{t-1}.
    """
    t = len(xs)
    cum = [0.0]
    for s in shifts:
        cum.append(cum[-1] + s)
    e1 = sum(x - cum[i] for i, x in enumerate(xs)) / t
    return e1, e1 + cum[t - 1], e1 + cum[t]


class TestAzumaEpsilon:

    def test_gaussian_term_hand_value(self):
        # t=1, delta=2/e makes ln(2/delta)=1, so eps = sqrt(2*sigma_sq)
        eps = azuma_epsilon(1, 2 / math.e, SubExpParams(1.0, 0.0))
        assert eps == pytest.approx(1.4142135623730951, abs=1e-15)

    def test_heavy_tail_term_dominates(self):
        # max(sqrt(0.02), 2*10/1) = 20 when the linear term wins
        eps = azuma_epsilon(1, 2 / math.e, SubExpParams(0.01, 10.0))
        assert eps == pytest.approx(20.0, abs=1e-12)

    def test_frozen_value_t100(self):
        eps = azuma_epsilon(100, 0.05, SubExpParams(1.0, 0.0))
        assert eps == pytest.approx(0.2716203031481239, abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-6, 0.025, 0.05, 0.1, 2 / math.e,
                                       0.9])
    def test_equals_formula_with_fresh_log(self, delta):
        # The estimator computes ln(2/delta) once; every half-width must
        # still be bit for bit the formula with the log taken afresh.
        params = SubExpParams(2.0, 5.0)
        est = ShiftedMeanEstimator(delta, params)
        for t in range(1, 300):
            log_term = math.log(2.0 / delta)
            want = max(math.sqrt(2.0 * params.sigma_sq / t * log_term),
                       2.0 * params.nu / t * log_term)
            assert azuma_epsilon(t, delta, params) == want
            assert est.update(0.0, 0.0) == (-want, want, 1.0 - delta)

    def test_nonincreasing_in_t(self):
        params = SubExpParams(2.0, 3.0)
        values = [azuma_epsilon(t, 0.05, params) for t in range(1, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_parameters(self):
        base = azuma_epsilon(10, 0.05, SubExpParams(1.0, 1.0))
        assert azuma_epsilon(10, 0.05, SubExpParams(2.0, 1.0)) >= base
        assert azuma_epsilon(10, 0.05, SubExpParams(1.0, 9.0)) >= base
        assert azuma_epsilon(10, 0.01, SubExpParams(1.0, 1.0)) >= base

    @pytest.mark.parametrize("delta", [1e-17, 2.0 ** -53, 5e-324])
    def test_delta_whose_level_rounds_to_one_is_rejected(self, delta):
        # 1 - delta/2 == 1.0: no interval may carry confidence 1.
        with pytest.raises(ConfigError, match="too small"):
            ShiftedMeanEstimator(delta, SubExpParams(1.0, 0.0))
        smallest = 2.0 ** -52
        assert 1.0 - smallest / 2.0 < 1.0
        est = ShiftedMeanEstimator(smallest, SubExpParams(1.0, 0.0))
        assert est.update(0.0, 0.0).confidence == 1.0 - smallest

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            azuma_epsilon(0, 0.05, SubExpParams(1.0, 0.0))
        with pytest.raises(ConfigError):
            azuma_epsilon(5, 0.0, SubExpParams(1.0, 0.0))
        with pytest.raises(ConfigError):
            azuma_epsilon(5, 1.0, SubExpParams(1.0, 0.0))
        with pytest.raises(ConfigError):
            SubExpParams(-1.0, 0.0)
        with pytest.raises(ConfigError):
            SubExpParams(0.0, 0.0)
        for sigma_sq, nu in ((True, 0.0), (1.0, math.inf), ("1", 0.0),
                             (10 ** 400, 0.0)):
            with pytest.raises(ConfigError):
                SubExpParams(sigma_sq, nu)


class TestShiftedMeanEstimator:

    def make(self, delta=0.05, params=SubExpParams(1.0, 0.0)):
        return ShiftedMeanEstimator(delta, params)

    def test_empty_estimator_has_no_estimate(self):
        est = self.make()
        assert est.t == 0
        with pytest.raises(RuntimeError):
            est.point_estimate()
        with pytest.raises(RuntimeError):
            est.point_estimate_initial()

    def test_single_update_interval(self):
        est = self.make(delta=2 / math.e)
        ci = est.update(7.0, 0.0)
        root2 = 1.4142135623730951
        assert ci.lo == pytest.approx(7.0 - root2, abs=1e-12)
        assert ci.hi == pytest.approx(7.0 + root2, abs=1e-12)
        assert ci.confidence == pytest.approx(1 - 2 / math.e)

    def test_hand_trace_with_constant_shift(self):
        # x = (1, 0, 1) with a +0.1 shift after every step
        est = self.make()
        mids = [est.update(x, 0.1).midpoint for x in (1.0, 0.0, 1.0)]
        assert mids[0] == pytest.approx(1.0, abs=1e-12)
        assert mids[1] == pytest.approx(0.55, abs=1e-12)
        assert mids[2] == pytest.approx(0.7666666666666668, abs=1e-12)
        assert est.point_estimate_initial() == pytest.approx(
            0.5666666666666668, abs=1e-12)
        assert est.point_estimate() == pytest.approx(
            0.8666666666666667, abs=1e-12)
        assert est.net_shift == pytest.approx(0.3, abs=1e-15)

    def test_matches_direct_form_on_random_stream(self):
        rng = random.Random(11)
        xs = [rng.gauss(5.0, 2.0) for _ in range(200)]
        shifts = [rng.choice((-0.02, 0.0, 0.05)) for _ in range(200)]
        est = self.make()
        last = None
        for x, shift in zip(xs, shifts):
            last = est.update(x, shift)
        e1, center, nxt = _direct_estimate(xs, shifts)
        assert est.point_estimate_initial() == pytest.approx(e1, rel=1e-9)
        assert last.midpoint == pytest.approx(center, rel=1e-9)
        assert est.point_estimate() == pytest.approx(nxt, rel=1e-9)

    def test_interval_width_follows_bound_exactly(self):
        est = self.make(delta=0.1, params=SubExpParams(2.0, 1.0))
        for t in range(1, 51):
            ci = est.update(0.0, 0.0)
            eps = azuma_epsilon(t, 0.1, SubExpParams(2.0, 1.0))
            assert ci.width == pytest.approx(2 * eps, rel=1e-12)

    def test_rejects_non_finite_observation(self):
        est = self.make()
        est.update(1.0, 0.0)
        with pytest.raises(ValueError):
            est.update(float("nan"), 0.0)
        for x, shift in ((math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf),
                         (0.0, math.nan)):
            with pytest.raises(ValueError, match="corrupt observation"):
                est.update(x, shift)

    def test_estimate_past_float_range_is_rejected(self):
        # The net shift overflows to inf on the third update, so the
        # interval's endpoints are not finite.
        est = self.make()
        est.update(0.0, 1.7e308)
        est.update(0.0, 1.7e308)
        with pytest.raises(ValueError, match="endpoints must be finite"):
            est.update(0.0, 1.7e308)

    def test_sample_past_float_range_is_rejected(self):
        # The second sample at 1.7e308 overflows the running mean to inf.
        est = self.make()
        est.update(1.7e308, 0.0)
        with pytest.raises(ValueError) as info:
            est.update(1.7e308, 0.0)
        assert str(info.value) == "interval endpoints must be finite"

    def test_state_round_trip(self):
        shifts = [0.01 * i for i in range(20)]
        a = self.make()
        b = self.make()
        rng = random.Random(3)
        xs = [rng.random() for _ in range(20)]
        outs_a = [a.update(x, shift) for x, shift in zip(xs, shifts)]

        fresh = self.make()
        for x, shift in zip(xs[:10], shifts[:10]):
            b.update(x, shift)
        fresh.load_state_dict(b.state_dict())
        outs_b = [fresh.update(x, shift)
                  for x, shift in zip(xs[10:], shifts[10:])]
        for got, want in zip(outs_b, outs_a[10:]):
            assert got == want

    @pytest.mark.parametrize("state, exc_type, message", [
        ({"e1_hat": 0.0, "d": 0.0, "d_comp": 0.0}, ValueError,
         "state.t is missing"),
        ({"t": -1, "e1_hat": 0.0, "d": 0.0, "d_comp": 0.0}, TypeError,
         "state.t must be a nonnegative integer, got -1"),
        ({"t": 1, "e1_hat": 0.0, "d": "0", "d_comp": 0.0}, TypeError,
         "state.d must be a finite number, got '0'"),
    ])
    def test_bad_state_names_its_field(self, state, exc_type, message):
        with pytest.raises(exc_type) as info:
            self.make().load_state_dict(state)
        assert str(info.value) == message

    def test_mean_of_estimates_is_unbiased(self):
        # small-scale version of the acceptance check: average the
        # interval midpoints over many runs and compare with the truth
        rng = random.Random(99)
        runs, horizon, p0, drift = 2000, 50, 0.5, 0.002
        errs = []
        for _ in range(runs):
            est = ShiftedMeanEstimator(0.05, SubExpParams(1.0, 0.0))
            p = p0
            ci = None
            for _ in range(horizon):
                truth = p
                ci = est.update(1.0 if rng.random() < p else 0.0, drift)
                p += drift
            errs.append(ci.midpoint - truth)
        mean_err = sum(errs) / runs
        var = sum((e - mean_err) ** 2 for e in errs) / (runs - 1)
        stderr = math.sqrt(var / runs)
        assert abs(mean_err) <= 4 * stderr


class TestConfidenceInterval:

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(1.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            ConfidenceInterval(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ConfidenceInterval(float("inf"), 1.0, 0.9)

    def test_fields_are_immutable(self):
        ci = ConfidenceInterval(1.0, 2.0, 0.9)
        with pytest.raises(AttributeError):
            ci.lo = 5.0
        with pytest.raises(AttributeError):
            ci.extra = 1
        # the namedtuple constructors that bypass __new__ still validate
        with pytest.raises(ValueError):
            ci._replace(lo=3.0)
        with pytest.raises(ValueError):
            ConfidenceInterval._make([0.0, float("nan"), 0.9])

    def test_accessors(self):
        ci = ConfidenceInterval(-1.0, 3.0, 0.9)
        assert ci.width == 4.0
        assert ci.midpoint == 1.0
        assert ci.contains(0.0)
        assert not ci.contains(3.5)

    def test_subtraction_combines_widths_and_budgets(self):
        a = ConfidenceInterval(1.0, 2.0, 0.975)
        b = ConfidenceInterval(0.5, 1.5, 0.975)
        c = interval_sub(a, b)
        assert (c.lo, c.hi) == (-0.5, 1.5)
        assert c.confidence == pytest.approx(0.95)

    def test_subtraction_confidence_floors_at_zero(self):
        a = ConfidenceInterval(0.0, 1.0, 0.3)
        b = ConfidenceInterval(0.0, 1.0, 0.3)
        assert interval_sub(a, b).confidence == 0.0

    @pytest.mark.parametrize("lo, hi", [
        (1.0, 0.0), (math.inf, 1.0), (0.0, math.nan), (-math.inf, math.inf),
        (math.nan, math.nan)])
    def test_trusted_interval_fails_like_the_constructor(self, lo, hi):
        with pytest.raises(ValueError) as want:
            ConfidenceInterval(lo, hi, 0.9)
        with pytest.raises(ValueError) as got:
            trusted_interval(lo, hi, 0.9)
        assert str(got.value) == str(want.value)

    def test_trusted_interval_is_a_confidence_interval(self):
        ci = trusted_interval(-0.0, 2.5, 0.975)
        assert type(ci) is ConfidenceInterval
        assert ci == ConfidenceInterval(-0.0, 2.5, 0.975)
        assert ci.midpoint == 1.25

    def test_subtraction_past_float_range_is_rejected(self):
        a = ConfidenceInterval(-1.7e308, 1.7e308, 0.975)
        with pytest.raises(ValueError) as info:
            interval_sub(a, a)
        assert str(info.value) == "interval endpoints must be finite"

    def test_subtraction_exhausting_the_budget_has_confidence_zero(self):
        # 1 - (0.6 + 0.6) is -0.2, clamped to +0.0.
        a = ConfidenceInterval(0.0, 1.0, 0.4)
        b = ConfidenceInterval(-1.0, 0.5, 0.4)
        c = interval_sub(a, b)
        assert c == (-0.5, 2.0, 0.0)
        assert math.copysign(1.0, c.confidence) == 1.0

    def test_decreasing_map_swaps_endpoints(self):
        ci = ConfidenceInterval(1.0, 2.0, 0.9)
        out = interval_map_decreasing(lambda v: -v, ci)
        assert (out.lo, out.hi) == (-2.0, -1.0)
        assert out.confidence == 0.9
