"""Tests for the three stream monitors.

Fixture expectations are re-derived with the direct (batch) form of the
underlying estimator, see `_direct_rate_interval`, or frozen by hand.
"""

import gc
import json
import math
import random
import weakref

import pytest

from fairmon import ConfidenceInterval, azuma_epsilon
from fairmon.discovery import MAX_RATE, eta
from fairmon.errors import ConfigError
from fairmon.estimator import SubExpParams
from fairmon.monitors import (
    MONITORS,
    RATE_FLOOR,
    AttentionConfig,
    AttentionMonitor,
    AttentionObservation,
    CoinMonitor,
    CoinMonitorConfig,
    CoinObservation,
    LendingConfig,
    LendingMonitor,
    LendingObservation,
    attention_change,
    build_monitor,
    coin_change,
    lending_change,
)
from oracles import check_parameter_floor


def lend(x, g, y, z):
    return LendingObservation(x=x, g=g, y=y, z=z)


class TestLendingChange:

    cfg = LendingConfig(n_a=10, n_b=20, c_max=100, delta=0.05)

    def test_repaid_grant_raises_group_mean(self):
        assert lending_change(lend(50, "A", 1, 1), self.cfg) == 0.1
        assert lending_change(lend(50, "B", 1, 1), self.cfg) == 0.05

    def test_defaulted_grant_lowers_group_mean(self):
        assert lending_change(lend(50, "A", 1, 0), self.cfg) == -0.1

    def test_rejection_changes_nothing(self):
        assert lending_change(lend(50, "A", 0, 0), self.cfg) == 0.0
        assert lending_change(lend(50, "A", 0, 1), self.cfg) == 0.0

    def test_score_pinned_at_bounds(self):
        assert lending_change(lend(100, "A", 1, 1), self.cfg) == 0.0
        assert lending_change(lend(0, "A", 1, 0), self.cfg) == 0.0
        # the bound only pins in the direction it would be crossed
        assert lending_change(lend(100, "A", 1, 0), self.cfg) == -0.1
        assert lending_change(lend(0, "A", 1, 1), self.cfg) == 0.1


class TestLendingMonitor:

    def make(self, c_max=10, delta=0.05):
        return LendingMonitor(
            LendingConfig(n_a=5, n_b=5, c_max=c_max, delta=delta))

    def test_inconclusive_until_both_groups_seen(self):
        mon = self.make()
        out = mon.update(lend(5, "A", 0, 0))
        assert not out.conclusive
        assert out.phi is None
        assert out.per_group["B"] is None
        out = mon.update(lend(5, "A", 1, 1))
        assert not out.conclusive
        out = mon.update(lend(4, "B", 0, 0))
        assert out.conclusive

    def test_two_observation_fixture(self):
        # one score per group, no grants: phi is centered at the score
        # difference with width twice the per-estimator bound at t=1
        mon = self.make()
        mon.update(lend(8, "A", 0, 0))
        out = mon.update(lend(4, "B", 0, 0))
        half = 29.604143746015964  # azuma bound, t=1, delta=0.025, (100, 0)
        assert out.phi.midpoint == pytest.approx(4.0, abs=1e-12)
        assert out.phi.width == pytest.approx(2 * 2 * half, rel=1e-12)
        assert out.phi.confidence == pytest.approx(0.95)

    def test_confidence_budget_is_split(self):
        mon = self.make(delta=0.1)
        out = mon.update(lend(5, "A", 0, 0))
        assert out.per_group["A"].confidence == pytest.approx(0.95)

    def test_estimator_params_use_score_range(self):
        mon = self.make(c_max=100)
        assert mon.estimator("A").params == SubExpParams(10000.0, 0.0)

    def test_shift_tracking_through_grants(self):
        mon = self.make()
        mon.update(lend(5, "A", 1, 1))
        mon.update(lend(5, "A", 1, 1))
        mon.update(lend(5, "A", 1, 0))
        assert mon.estimator("A").net_shift == pytest.approx(0.2, abs=1e-15)
        assert mon.estimator("B").net_shift == 0.0

    def test_output_fields_are_immutable(self):
        out = self.make().update(lend(5, "A", 0, 0))
        assert (out.clamped, out.floor_violation) == (False, False)
        with pytest.raises(AttributeError):
            out.phi = out.per_group["A"]
        with pytest.raises(AttributeError):
            out.clamped = True

    def test_rejects_malformed_observations(self):
        mon = self.make()
        with pytest.raises(ValueError):
            mon.update(lend(11, "A", 0, 0))
        with pytest.raises(ValueError):
            mon.update(lend(5, "C", 0, 0))
        with pytest.raises(ValueError):
            mon.update(lend(5, "A", 2, 0))

    def test_state_round_trip(self):
        mon = self.make()
        stream = [lend(3, "A", 1, 1), lend(7, "B", 1, 0), lend(5, "A", 0, 0),
                  lend(2, "B", 1, 1)]
        outs = [mon.update(o) for o in stream]

        first = self.make()
        for o in stream[:2]:
            first.update(o)
        resumed = self.make()
        resumed.load_state_dict(first.state_dict())
        for o, want in zip(stream[2:], outs[2:]):
            assert resumed.update(o) == want


def attn(x_a, x_b, y_a, y_b, k=6):
    return AttentionObservation(x_a=x_a, x_b=x_b, y_a=y_a, y_b=y_b, k=k)


def _direct_rate_interval(xs, ys, gamma, delta, lambda_max, floor):
    """Batch re-derivation of one location's clamped rate interval."""
    t = len(xs)
    cum = [0.0]
    for y in ys:
        cum.append(cum[-1] + attention_change(y, gamma))
    e1 = sum(x - cum[i] for i, x in enumerate(xs)) / t
    center = e1 + cum[t - 1]
    log_term = math.log(2.0 / (delta / 2.0))
    eps = max(math.sqrt(2.0 * (2.0 * lambda_max) / t * log_term),
              2.0 * 2.0 / t * log_term)
    lo, hi = center - eps, center + eps
    if lo < floor:
        lo, hi = floor, max(hi, floor)
    return lo, hi


class TestAttentionChange:

    def test_ignored_location_drifts_up(self):
        assert attention_change(0, 0.01) == 0.01

    def test_attended_location_drifts_down_per_unit(self):
        assert attention_change(3, 0.01) == pytest.approx(-0.03)
        assert attention_change(1, 0.25) == -0.25

    def test_zero_gamma_freezes_rates(self):
        for y in (0, 1, 5):
            assert attention_change(y, 0.0) == 0.0


class TestAttentionMonitor:

    def make(self, gamma=0.01, lambda_min=1.0, lambda_max=8.0, delta=0.05):
        return AttentionMonitor(AttentionConfig(
            gamma=gamma, lambda_min=lambda_min, lambda_max=lambda_max,
            delta=delta))

    def test_symmetric_observation_centers_phi_at_zero(self):
        mon = self.make()
        out = mon.update(attn(4, 4, 3, 3))
        assert out.conclusive
        assert out.phi.midpoint == pytest.approx(0.0, abs=1e-12)
        assert out.phi.lo == pytest.approx(-out.phi.hi, abs=1e-12)
        assert out.phi.confidence == pytest.approx(0.95)

    def test_first_step_clamps_wide_rate_interval(self):
        # one observation cannot pin the rate away from zero, so the
        # mapped interval reports the clamp
        out = self.make().update(attn(4, 4, 3, 3))
        assert out.clamped

    def test_unattended_location_has_degenerate_interval(self):
        out = self.make().update(attn(4, 4, 3, 0))
        assert out.per_group["B"] == ConfidenceInterval(
            0.0, 0.0, out.per_group["B"].confidence)
        assert out.per_group["B"].confidence == pytest.approx(0.975)

    def test_three_step_fixture_matches_direct_replay(self):
        gamma, lo_rate, hi_rate, delta = 0.02, 1.0, 8.0, 0.1
        mon = self.make(gamma=gamma, lambda_min=lo_rate, lambda_max=hi_rate,
                        delta=delta)
        obs_seq = [attn(5, 2, 4, 2), attn(3, 4, 0, 6), attn(6, 1, 3, 3)]
        out = None
        for o in obs_seq:
            out = mon.update(o)
        la, ha = _direct_rate_interval([5, 3, 6], [4, 0, 3], gamma, delta,
                                       hi_rate, RATE_FLOOR)
        lb, hb = _direct_rate_interval([2, 4, 1], [2, 6, 3], gamma, delta,
                                       hi_rate, RATE_FLOOR)
        y_a, y_b = 3, 3
        want_a = (eta(y_a, ha), eta(y_a, la))
        want_b = (eta(y_b, hb), eta(y_b, lb))
        assert out.per_group["A"].lo == pytest.approx(want_a[0], rel=1e-12)
        assert out.per_group["A"].hi == pytest.approx(want_a[1], rel=1e-12)
        assert out.phi.lo == pytest.approx(want_a[0] - want_b[1], rel=1e-12)
        assert out.phi.hi == pytest.approx(want_a[1] - want_b[0], rel=1e-12)

    def test_floor_violation_flag(self):
        # lambda_min=0.1 with shifts of -0.05 per step crosses zero on
        # the third step and the flag stays on afterwards
        mon = self.make(gamma=0.05, lambda_min=0.1, lambda_max=8.0)
        assert not mon.update(attn(4, 4, 1, 1)).floor_violation
        assert mon.update(attn(4, 4, 1, 1)).floor_violation
        assert mon.update(attn(4, 4, 0, 0)).floor_violation

    @pytest.mark.parametrize("seed", range(4))
    def test_floor_flag_matches_oracle_on_random_stream(self, seed):
        # zero-drift random allocations walk each rate up and down until
        # one crosses the floor; the flag must equal the prefix check over
        # the full shift history at every step, also across a snapshot
        # taken at a random step after it is first set
        rng = random.Random(seed)
        gamma, lambda_min = 0.013, 0.2
        shifts = {"A": [], "B": []}
        stream, wants = [], []
        for _ in range(300):
            y_a, y_b = rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1, 2))
            stream.append(attn(rng.randrange(12), rng.randrange(12),
                               y_a, y_b, k=4))
            shifts["A"].append(attention_change(y_a, gamma))
            shifts["B"].append(attention_change(y_b, gamma))
            wants.append(not all(check_parameter_floor(lambda_min, shifts[g])
                                 for g in shifts))
        assert not wants[0] and wants[-1]
        split = rng.randrange(wants.index(True) + 1, len(stream))
        mon = self.make(gamma=gamma, lambda_min=lambda_min)
        for step, (obs, want) in enumerate(zip(stream, wants)):
            if step == split:
                state = json.loads(json.dumps(mon.state_dict()))
                assert state["floor_violation"] is True
                mon = self.make(gamma=gamma, lambda_min=lambda_min)
                mon.load_state_dict(state)
            assert mon.update(obs).floor_violation == want, f"step {step}"

    def test_rate_interval_past_max_rate_is_clamped(self):
        # At t=1 the rate interval around 600 reaches past MAX_RATE; its
        # upper end is clamped there instead of failing the mapping.
        mon = self.make(gamma=0.0, lambda_min=500.0, lambda_max=650.0)
        out = mon.update(attn(600, 600, 1, 1, k=2))
        assert out.clamped
        assert out.per_group["A"].lo == eta(1, MAX_RATE)
        assert out.per_group["A"].contains(eta(1, 600.0))
        assert not mon.update(attn(600, 600, 1, 1, k=2)).clamped

    def test_rejects_overallocated_capacity(self):
        with pytest.raises(ValueError):
            self.make().update(attn(4, 4, 4, 3, k=6))

    def test_state_round_trip(self):
        stream = [attn(5, 2, 4, 2), attn(3, 4, 0, 6), attn(6, 1, 3, 3),
                  attn(2, 2, 1, 1)]
        mon = self.make()
        outs = [mon.update(o) for o in stream]
        first = self.make()
        for o in stream[:2]:
            first.update(o)
        resumed = self.make()
        resumed.load_state_dict(first.state_dict())
        for o, want in zip(stream[2:], outs[2:]):
            assert resumed.update(o) == want


class TestCoinMonitor:

    def test_change_follows_outcome(self):
        assert coin_change(CoinObservation(1), 0.1) == 0.1
        assert coin_change(CoinObservation(0), 0.1) == -0.1

    def test_interval_tracks_single_estimator(self):
        mon = CoinMonitor(CoinMonitorConfig(epsilon=0.1, delta=0.05))
        out = mon.update(CoinObservation(1))
        eps = azuma_epsilon(1, 0.05, SubExpParams(1.0, 0.0))
        assert out.phi.midpoint == pytest.approx(1.0, abs=1e-12)
        assert out.phi.width == pytest.approx(2 * eps, rel=1e-12)
        assert out.conclusive

    def test_tail_parameters_follow_outcome_range(self):
        mon = CoinMonitor(CoinMonitorConfig(epsilon=0.1, delta=0.05))
        assert mon.estimator.params == SubExpParams(1.0, 0.0)

    def test_rejects_non_binary_outcome(self):
        mon = CoinMonitor(CoinMonitorConfig(epsilon=0.1, delta=0.05))
        with pytest.raises(ValueError):
            mon.update(CoinObservation(2))


class TestObservations:

    @pytest.mark.parametrize("kind, fields, values, text", [
        ("lending", ("x", "g", "y", "z"), (5, "A", 1, 0),
         "LendingObservation(x=5, g='A', y=1, z=0)"),
        ("attention", ("x_a", "x_b", "y_a", "y_b", "k"), (4, 3, 1, 0, 2),
         "AttentionObservation(x_a=4, x_b=3, y_a=1, y_b=0, k=2)"),
        ("coin", ("x",), (1,), "CoinObservation(x=1)"),
    ])
    def test_fields_keywords_and_repr(self, kind, fields, values, text):
        obs_type = MONITORS[kind].observation_type
        obs = obs_type(**dict(zip(fields, values)))
        assert obs_type._fields == fields
        assert obs == obs_type(*values)
        assert repr(obs) == text
        assert [getattr(obs, f) for f in fields] == list(values)
        with pytest.raises(AttributeError):
            obs.x_new = 1
        with pytest.raises(AttributeError):
            setattr(obs, fields[0], 0)


class TestBuildMonitor:

    def test_builds_each_kind(self):
        assert isinstance(build_monitor(
            {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10,
             "delta": 0.05}), LendingMonitor)
        assert isinstance(build_monitor(
            {"kind": "attention", "gamma": 0.01, "lambda_min": 1.0,
             "lambda_max": 8.0, "delta": 0.05}), AttentionMonitor)
        assert isinstance(build_monitor(
            {"kind": "coin", "epsilon": 0.1, "delta": 0.05}), CoinMonitor)

    def test_unknown_kind_and_bad_fields(self):
        with pytest.raises(ValueError):
            build_monitor({"kind": "housing"})
        with pytest.raises(ValueError):
            build_monitor({"kind": "coin", "bogus": 1})

    @pytest.mark.parametrize("config", [
        {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10, "delta": 0.05},
        {"kind": "attention", "gamma": 0.01, "lambda_min": 1.0,
         "lambda_max": 8.0, "delta": 0.05},
    ])
    def test_discarded_monitor_is_freed_without_cycle_collector(self,
                                                                config):
        # a resumed run builds one monitor per batch; a reference cycle
        # would leave every one of them to the cyclic garbage collector
        gc.disable()
        try:
            mon = build_monitor(config)
            ref = weakref.ref(mon)
            del mon
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("config", [
        {"kind": "lending", "n_a": 0, "n_b": 5, "c_max": 10, "delta": 0.05},
        {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10, "delta": 1.0},
        {"kind": "attention", "gamma": 0.01, "lambda_min": 9.0,
         "lambda_max": 8.0, "delta": 0.05},
        {"kind": "attention", "gamma": 0.01, "lambda_min": 1.0,
         "lambda_max": 8.0, "delta": 0.05, "rate_floor": 1e-9},
        {"kind": "coin", "epsilon": 0.1, "delta": 0.0},
        {"kind": "housing"},
        # Field types: a bool is not an int, an int field takes no
        # fraction, a float field must be finite as a float.
        {"kind": "lending", "n_a": True, "n_b": 5, "c_max": 10,
         "delta": 0.05},
        {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10.5,
         "delta": 0.05},
        {"kind": "attention", "gamma": 0.01, "lambda_min": 1.0,
         "lambda_max": 10 ** 400, "delta": 0.05},
        # eta is computed at rates up to discovery.MAX_RATE only.
        {"kind": "attention", "gamma": 0.01, "lambda_min": 1.0,
         "lambda_max": 701.0, "delta": 0.05},
        {"kind": "coin", "epsilon": False, "delta": 0.05},
        # The coin monitor's tail parameters are not options.
        {"kind": "coin", "epsilon": 0.1, "delta": 0.05, "sigma_sq": 2.0},
        {"kind": ["lending"]},
        # float(c_max) ** 2 must be finite; group sizes must be floats.
        {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10 ** 160,
         "delta": 0.05},
        {"kind": "lending", "n_a": 10 ** 400, "n_b": 5, "c_max": 10,
         "delta": 0.05},
        {"kind": "lending", "n_a": 5, "n_b": 10 ** 400, "c_max": 10,
         "delta": 0.05},
    ])
    def test_config_errors_are_config_errors(self, config):
        with pytest.raises(ConfigError):
            build_monitor(config)
