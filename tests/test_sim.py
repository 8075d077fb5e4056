"""Tests for the three simulators and the Poisson sampler.

The key invariant in each environment is self-consistency: the change
the monitor assumes (via the change functions) must equal the change the
environment actually applies, step for step.
"""

import hashlib
import math
import random

import pytest

from fairmon import runner
from fairmon.errors import AssumptionViolation, ConfigError
from fairmon.monitors import attention_change, lending_change, LendingConfig
from fairmon.sim import attention, coin, lending
from fairmon.sim.sampling import poisson, skip_poisson
from oracles import oracle_repay_mass, oracle_score_step


class TestPoissonSampler:

    def test_zero_is_possible_and_counts_are_nonnegative(self):
        rng = random.Random(0)
        draws = [poisson(rng, 0.5) for _ in range(2000)]
        assert min(draws) == 0
        assert any(d > 0 for d in draws)

    @pytest.mark.parametrize("lam", [0.3, 2.0, 9.9, 10.1, 50.0])
    def test_mean_and_variance_match(self, lam):
        # both moments equal lam; allow 5 sigma on 200k draws
        n = 200_000
        rng = random.Random(123)
        draws = [poisson(rng, lam) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / (n - 1)
        assert abs(mean - lam) <= 5 * math.sqrt(lam / n)
        # Var of sample variance of Poisson is roughly (lam + 2 lam^2)/n
        assert abs(var - lam) <= 5 * math.sqrt((lam + 2 * lam ** 2) / n)

    def test_deterministic_for_fixed_seed(self):
        a = [poisson(random.Random(7), lam) for lam in (0.5, 3.0, 40.0)]
        b = [poisson(random.Random(7), lam) for lam in (0.5, 3.0, 40.0)]
        assert a == b

    # Both sides of the inversion cutoff, the cutoff itself, an int rate
    # and the largest rate the simulators allow.
    @pytest.mark.parametrize("lam", [
        1e-3, 0.3, 8, 8.0, 9.999, 10.0, math.nextafter(10.0, math.inf),
        10.5, 40.0, 700.0])
    def test_skip_advances_rng_like_poisson(self, lam):
        drawn, skipped = random.Random(11), random.Random(11)
        for _ in range(200):
            poisson(drawn, lam)
            assert skip_poisson(skipped, lam) is None
            assert skipped.getstate() == drawn.getstate()

    def test_skip_reads_one_uniform_on_the_stall_guard_path(self):
        # The uniform that sends poisson at rate 0.1 through all 10_000
        # inversion terms (see test_inversion_stall_guard_is_pinned).
        class LargestU:
            calls = 0

            def random(self):
                self.calls += 1
                return 1.0 - 2.0 ** -53

        rng = LargestU()
        skip_poisson(rng, 0.1)
        assert rng.calls == 1

    @pytest.mark.parametrize("lam", [0, -1])
    def test_skip_rejects_what_poisson_rejects(self, lam):
        with pytest.raises(ValueError) as drawn:
            poisson(random.Random(0), lam)
        with pytest.raises(ValueError) as skipped:
            skip_poisson(random.Random(0), lam)
        assert str(skipped.value) == str(drawn.value)


class TestCoinSim:

    def test_bias_shifts_with_outcome(self):
        cfg = coin.CoinConfig(p1=0.5, epsilon=0.1, horizon=10, seed=0)
        proc = coin.CoinProcess(cfg)
        rng = random.Random(0)
        x, p_used = proc.step(rng)
        assert p_used == 0.5
        assert proc.p == pytest.approx(0.5 + (0.1 if x == 1 else -0.1))

    def test_truth_is_bias_of_current_toss(self):
        cfg = coin.CoinConfig(p1=0.5, epsilon=0.01, horizon=20, seed=3)
        expected_p = 0.5
        for rec in coin.generate(cfg):
            assert rec["truth"]["phi"] == pytest.approx(expected_p)
            expected_p += 0.01 if rec["x"] == 1 else -0.01

    def test_aborts_when_bias_leaves_unit_interval(self):
        cfg = coin.CoinConfig(p1=0.05, epsilon=0.2, horizon=1000, seed=1)
        with pytest.raises(AssumptionViolation):
            for _ in coin.generate(cfg):
                pass

    def test_zero_drift_never_aborts(self):
        cfg = coin.CoinConfig(p1=0.5, epsilon=0.0, horizon=500, seed=2)
        assert sum(1 for _ in coin.generate(cfg)) == 500

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            coin.CoinConfig(p1=0.0, epsilon=0.1, horizon=10, seed=0)
        with pytest.raises(ConfigError):
            coin.CoinConfig(p1=0.5, epsilon=1.0, horizon=10, seed=0)


class TestLendingSim:

    def make_cfg(self, **kw):
        base = dict(n_a=10, n_b=10, c_max=20, horizon=200, seed=5)
        base.update(kw)
        return lending.LendingSimConfig(**base)

    def test_env_means_shift_exactly_by_change_function(self):
        cfg = self.make_cfg()
        env = lending.LendingEnv(cfg)
        policy = lending.make_policy(cfg)
        rng = random.Random(cfg.seed)
        mon_cfg = LendingConfig(n_a=cfg.n_a, n_b=cfg.n_b, c_max=cfg.c_max,
                                delta=0.05)
        for _ in range(cfg.horizon):
            before = {g: env.group_mean(g) for g in ("A", "B")}
            obs, truth = env.step(policy, rng)
            assert truth["psi_a"] == before["A"]
            assert truth["psi_b"] == before["B"]
            shift = lending_change(obs, mon_cfg)
            after = env.group_mean(obs.g)
            assert after == pytest.approx(before[obs.g] + shift, abs=1e-12)

    @pytest.mark.parametrize("policy", ["max_reward", "eq_opp"])
    @pytest.mark.parametrize("init, seen", [
        ({"init": "low-bias"}, {(1, 1, 1), (1, 0, -1)}),
        ({"init": "mid-bias"}, {(1, 1, 1), (1, 0, -1)}),
        ({"init": "high-bias"}, {(1, 1, 1), (1, 0, -1)}),
        # Pinned at 0 (granted from theta_bank 0.05) and at c_max.
        ({"init": ((0,) * 10, (0,) * 10), "theta_bank": 0.05},
         {(1, 0, 0)}),
        ({"init": ((20,) * 10, (20,) * 10)}, {(1, 1, 0)}),
    ], ids=["low-bias", "mid-bias", "high-bias", "all-zero", "all-c-max"])
    def test_score_step_matches_oracle_rule(self, init, seen, policy):
        cfg = self.make_cfg(policy=policy, horizon=400, **init)
        env = lending.LendingEnv(cfg)
        pol = lending.make_policy(cfg)
        rng = random.Random(cfg.seed)
        moves = set()
        for _ in range(cfg.horizon):
            before = {g: list(s) for g, s in env.scores.items()}
            sums = dict(env.sums)
            obs, _ = env.step(pol, rng)
            want = oracle_score_step(obs.x, obs.y, obs.z, cfg.c_max)
            moved = [(old, new) for old, new in
                     zip(before[obs.g], env.scores[obs.g]) if old != new]
            assert moved == ([] if want == obs.x else [(obs.x, want)])
            assert env.sums[obs.g] - sums[obs.g] == want - obs.x
            other = "B" if obs.g == "A" else "A"
            assert env.scores[other] == before[other]
            assert env.sums[other] == sums[other]
            moves.add((obs.y, obs.z, want - obs.x))
        # (decision, repayment, score change): the branches under test ran.
        assert seen <= moves

    def test_scores_stay_in_range_and_sums_exact(self):
        cfg = self.make_cfg(horizon=500)
        env = lending.LendingEnv(cfg)
        policy = lending.make_policy(cfg)
        rng = random.Random(cfg.seed)
        for _ in range(cfg.horizon):
            env.step(policy, rng)
        for g in ("A", "B"):
            assert all(0 <= x <= cfg.c_max for x in env.scores[g])
            assert env.sums[g] == sum(env.scores[g])

    def test_repaid_grant_at_cap_changes_nothing(self):
        cfg = self.make_cfg(init=((20,) * 10, (0,) * 10))
        env = lending.LendingEnv(cfg)
        policy = lending.MaxRewardPolicy(theta_bank=0.0)  # grant everyone
        rng = random.Random(0)
        for _ in range(100):
            obs, _ = env.step(policy, rng)
            assert obs.y == 1
        # A can only repay at the cap (no-op); B can only default at 0
        assert env.scores["A"] == [20] * 10 or max(env.scores["A"]) <= 20

    def test_max_reward_threshold(self):
        cfg = self.make_cfg()
        env = lending.LendingEnv(cfg)
        pol = lending.MaxRewardPolicy(theta_bank=0.5)
        # rho(x) = 0.1 + 0.85 x / 20: crosses 0.5 between x=9 and x=10
        assert pol.decide(9, "A", env, random.Random(0)) == 0
        assert pol.decide(10, "A", env, random.Random(0)) == 1

    def test_eq_opp_equalizes_would_repay_grant_rates(self):
        # single known score per group: A above threshold, B below; the
        # below-threshold grant probability must equalize the repay-mass
        # grant rates, here to exactly 1 (A's rate is 1)
        cfg = self.make_cfg(n_a=1, n_b=1, init=((15,), (5,)))
        env = lending.LendingEnv(cfg)
        pol = lending.EqOppPolicy(theta_bank=0.5)
        q = pol.grant_probability_below(env, "B")
        assert q == pytest.approx(1.0)
        assert not pol.fell_back

    def test_eq_opp_partial_equalization(self):
        # A: scores 10 and 6 -> repay mass rho(10)+rho(6), granted mass
        # rho(10); target = rho(10)/(rho(10)+rho(6)).  B: all above
        # threshold, target 1.  q for A solves (above + q*slack)/total = 1
        # capped, and for B there is no slack
        cfg = self.make_cfg(n_a=2, n_b=2, init=((10, 6), (12, 14)))
        env = lending.LendingEnv(cfg)
        pol = lending.EqOppPolicy(theta_bank=0.5)
        assert pol.grant_probability_below(env, "A") == pytest.approx(1.0)
        assert pol.grant_probability_below(env, "B") == 0.0

    def test_eq_opp_fallback_without_repay_mass(self):
        cfg = self.make_cfg(n_a=1, n_b=1, rho_min=0.0, rho_max=0.4,
                            init=((0,), (5,)))
        env = lending.LendingEnv(cfg)
        pol = lending.EqOppPolicy(theta_bank=0.5)
        assert pol.grant_probability_below(env, "B") == 0.0
        assert pol.fell_back

    @pytest.mark.parametrize("theta_bank", [0.5, 0.7])
    @pytest.mark.parametrize("init", sorted(lending.PRESETS))
    def test_eq_opp_seen_masses_equal_rescan(self, init, theta_bank):
        # Exact equality: the running masses must add the same floats in
        # the same order as a rescan of the seen scores, and the trace
        # must match a policy that rescans on every call.
        class RescanPolicy(lending.EqOppPolicy):
            def __init__(self, theta_bank):
                super().__init__(theta_bank, use_true_tallies=False)
                self.seen = {"A": [], "B": []}

            def decide(self, x, g, env, rng):
                self.seen[g].append(x)
                return super().decide(x, g, env, rng)

            def _repay_mass(self, env, g):
                return oracle_repay_mass(env, self.seen[g], self.theta_bank)

        for seed in (1, 2, 3):
            cfg = self.make_cfg(n_a=20, n_b=20, c_max=100, horizon=600,
                                seed=seed, init=init, theta_bank=theta_bank,
                                policy="eq_opp", use_true_tallies=False)
            env, ref_env = lending.LendingEnv(cfg), lending.LendingEnv(cfg)
            policy, ref = lending.make_policy(cfg), RescanPolicy(theta_bank)
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(cfg.horizon):
                assert env.step(policy, rng) == ref_env.step(ref, ref_rng)
                for g in ("A", "B"):
                    assert policy._repay_mass(env, g) == oracle_repay_mass(
                        env, ref.seen[g], theta_bank)
            assert policy.fell_back == ref.fell_back

    def test_eq_opp_seen_step_work_is_constant(self):
        # One rho call for the applicant, one more for a repayment draw;
        # a rescan of the seen applicants would grow with t.
        cfg = self.make_cfg(horizon=2000, policy="eq_opp",
                            use_true_tallies=False)
        env = lending.LendingEnv(cfg)
        rho, calls = env.rho, []

        def counting_rho(x):
            calls.append(x)
            return rho(x)

        env.rho = counting_rho
        policy, rng = lending.make_policy(cfg), random.Random(cfg.seed)
        per_step = []
        for _ in range(cfg.horizon):
            before = len(calls)
            env.step(policy, rng)
            per_step.append(len(calls) - before)
        assert max(per_step) <= 2

    def test_presets_cover_group_sizes(self):
        for name in lending.PRESETS:
            cfg = self.make_cfg(init=name, horizon=0)
            a, b = lending.initial_scores(cfg)
            assert len(a) == cfg.n_a and len(b) == cfg.n_b
            assert all(0 <= x <= cfg.c_max for x in a + b)

    def test_generate_is_deterministic(self):
        cfg = self.make_cfg(horizon=50)
        assert list(lending.generate(cfg)) == list(lending.generate(cfg))

    @pytest.mark.parametrize("fields", [
        {"n_a": 0}, {"n_b": -1}, {"c_max": 0},
        # The population check the monitor config shares: sizes that
        # convert to float, a c_max whose float square is finite.
        {"n_a": 10 ** 400}, {"c_max": 10 ** 160}, {"c_max": 10 ** 400},
    ])
    def test_rejects_bad_population(self, fields):
        with pytest.raises(ConfigError):
            self.make_cfg(**fields)

    @pytest.mark.parametrize("init", [
        [[1, 2, 3], None], [None, [9, 9, 9]], [5, [1, 1, 1]],
        [[1, 2, 30], [1, 1, 1]], [[1, 2, -1], [1, 1, 1]],
        [[1, 2, True], [1, 1, 1]], [[1, 2, 3.0], [1, 1, 1]],
        [[1, 2], [1, 1, 1]], [[1, 2, 3], "abc"],
        # The preset name and the lists are one field: neither is
        # accepted beside the other, nor one list alone.
        [[1, 2, 3]], [[1, 2, 3], [1, 1, 1], [1, 1, 1]], 5, {"a": 1},
        "no-such-preset", ["mid-bias", [1, 2, 3], [1, 1, 1]],
    ], ids=["a-only", "b-only", "not-a-list", "above-c-max", "negative",
            "bool-score", "float-score", "short", "text", "one-list",
            "three-lists", "number", "object", "unknown-preset",
            "preset-beside-lists"])
    def test_rejects_bad_initial_scores(self, init):
        # Checked at construction, before a trace file is opened.
        with pytest.raises(ConfigError):
            self.make_cfg(n_a=3, n_b=3, c_max=10, init=init)


class TestAttentionSim:

    def make_cfg(self, **kw):
        base = dict(l=5, k=6, gamma=0.0025, horizon=100, seed=9)
        base.update(kw)
        return attention.AttentionSimConfig(**base)

    def test_rates_shift_exactly_by_change_function(self):
        cfg = self.make_cfg()
        env = attention.AttentionEnv(cfg)
        policy = attention.AllocationPolicy(cfg)
        rng = random.Random(cfg.seed)
        for _ in range(cfg.horizon):
            before = list(env.rates)
            obs, truth = env.step(policy, rng)
            assert truth["lam_a"] == before[0]
            assert truth["lam_b"] == before[1]
            assert env.rates[0] == pytest.approx(
                before[0] + attention_change(obs.y_a, cfg.gamma), abs=1e-15)
            assert env.rates[1] == pytest.approx(
                before[1] + attention_change(obs.y_b, cfg.gamma), abs=1e-15)

    def test_uniform_allocation_is_balanced(self):
        cfg = self.make_cfg(policy="uniform")
        env = attention.AttentionEnv(cfg)
        policy = attention.AllocationPolicy(cfg)
        rng = random.Random(0)
        alloc = policy.allocate(env, rng)
        assert sorted(alloc) == [1, 1, 1, 1, 2]
        assert sum(alloc) == cfg.k

    def test_greedy_allocation_respects_capacity(self):
        # At k = 10 the default alpha would give each location a floor of 1.
        for k in (6, 10):
            cfg = self.make_cfg(policy="greedy", k=k)
            env = attention.AttentionEnv(cfg)
            policy = attention.AllocationPolicy(cfg)
            rng = random.Random(0)
            policy.observe([10, 0, 0, 0, 0])
            alloc = policy.allocate(env, rng)
            assert sum(alloc) == cfg.k
            assert alloc[0] == cfg.k  # all mass on the only observed counts

    def test_constrained_greedy_keeps_fairness_floor(self):
        cfg = self.make_cfg(l=2, k=8, policy="constrained_greedy",
                            alpha=0.5)
        env = attention.AttentionEnv(cfg)
        policy = attention.AllocationPolicy(cfg)
        rng = random.Random(0)
        policy.observe([100, 0])
        alloc = policy.allocate(env, rng)
        # floor of int(0.5 * 8 / 2) = 2 each, remainder greedy
        assert alloc[1] >= 2
        assert sum(alloc) == cfg.k

    def test_low_base_constrained_greedy_reduces_to_greedy(self):
        # int(alpha*k/l) = 0 here, so the floor vanishes
        for alpha, omniscient in [(0.75, False), (0.0, False), (0.0, True)]:
            cfg_c = self.make_cfg(policy="constrained_greedy", alpha=alpha,
                                  omniscient=omniscient)
            cfg_g = self.make_cfg(policy="greedy", omniscient=omniscient)
            assert list(attention.generate(cfg_c)) == \
                list(attention.generate(cfg_g))

    def test_aborts_when_rate_hits_zero(self):
        cfg = self.make_cfg(l=2, k=8, gamma=0.3, lambda_init=1.0,
                            horizon=100)
        with pytest.raises(AssumptionViolation):
            for _ in attention.generate(cfg):
                pass

    def test_aborts_when_rate_passes_discovery_range(self):
        # The truth needs eta at a rate above discovery.MAX_RATE.
        cfg = self.make_cfg(l=3, k=1, gamma=1.0, policy="uniform",
                            horizon=5000, seed=1)
        with pytest.raises(AssumptionViolation) as exc:
            for _ in attention.generate(cfg):
                pass
        assert exc.value.step == 2080
        assert "above the discovery range" in str(exc.value)

    def test_truth_omega_uses_pre_shift_rates(self):
        from fairmon.discovery import eta
        cfg = self.make_cfg(horizon=20)
        env = attention.AttentionEnv(cfg)
        policy = attention.AllocationPolicy(cfg)
        rng = random.Random(cfg.seed)
        for _ in range(cfg.horizon):
            before = list(env.rates)
            obs, truth = env.step(policy, rng)
            want_a = eta(obs.y_a, before[0]) if obs.y_a else 0.0
            want_b = eta(obs.y_b, before[1]) if obs.y_b else 0.0
            assert truth["omega_a"] == want_a
            assert truth["omega_b"] == want_b
            assert truth["phi"] == want_a - want_b

    def test_generate_is_deterministic(self):
        cfg = self.make_cfg(horizon=50)
        assert list(attention.generate(cfg)) == list(attention.generate(cfg))

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            self.make_cfg(l=1)
        with pytest.raises(ConfigError):
            self.make_cfg(policy="roundrobin")
        with pytest.raises(ConfigError):
            self.make_cfg(lambda_init=0.0)
        with pytest.raises(ConfigError):
            self.make_cfg(omniscient=1)

    @pytest.mark.parametrize("rates", [
        [True, 5], [1.0], [1.0, 0.0], [1.0, "2"], {"a": 5}, [1.0, 10 ** 400],
        [1.0, 700.5], True, -5.0, 0, 800, 10 ** 400, "8", None,
    ], ids=["bool-rate", "short", "zero-rate", "text-rate", "not-a-list",
            "huge-rate", "above-max-rate", "bool-scalar", "negative-scalar",
            "zero-scalar", "scalar-above-max-rate", "huge-scalar",
            "text-scalar", "null"])
    def test_rejects_bad_initial_rates(self, rates):
        with pytest.raises(ConfigError):
            self.make_cfg(l=2, k=2, lambda_init=rates)


# --------------------------------------------------------------------
# Bytes pinned across builds
# --------------------------------------------------------------------

_LENDING = {"kind": "lending", "n_a": 30, "n_b": 20, "c_max": 40,
            "horizon": 400}
_ATTENTION = {"kind": "attention", "l": 4, "k": 2, "gamma": 0.0025,
              "horizon": 400, "lambda_init": 8.0}

# (id, simulator config without its seed, {seed: sha256 of the trace
# runner.simulate writes}).  The determinism tests above compare two runs
# of one build; these digests pin the Poisson method, every random draw
# and each step's float operations across builds and CPython versions.
# A change that alters one of them changes the traces users reproduce.
TRACE_DIGESTS = [
    ("lending-max-reward", dict(_LENDING, policy="max_reward"),
     {1: "1a46103caab7010e7b4f77f11fde3a4b7dc8306185210d569c93f518327641d5",
      2: "c39ab3f770b3fd5efdbf6d26ed67fb4ecdc8b57b4f72e72add3a651aacf72740"}),
    ("lending-eq-opp-true", dict(_LENDING, policy="eq_opp"),
     {1: "02c38956dfe82363f5a327ddb27253e3ffecbbab26cfd01167055b08f287684c",
      2: "1f181818d04a5dc58d512640cf2e0ef4fa191eb94c7228eb4d00dc993998196e"}),
    ("lending-eq-opp-seen",
     dict(_LENDING, policy="eq_opp", use_true_tallies=False),
     {1: "65099ef974bdc25e8a2635c36eff61f0b0be0d388f826562667eeaf0395ee035",
      2: "10c096ad5d20a17096c619f8666c72769b167806f352b1a068ff8102085d8582"}),
    # A one-member group starts at the middle of its preset's range.
    ("lending-one-member", dict(_LENDING, n_a=1),
     {1: "37c9c256700f91c503e15942f785c50ede16a078d8d7a95b3dc0f3b0ae98faf0",
      2: "5b507bf7c182af7aaf5b4cde5c7418f665dd2b7bb5f9846a31da9e56c252ae48"}),
    # Explicit scores, 0 and c_max among them; B starts above A.
    ("lending-explicit-scores",
     dict(_LENDING, policy="eq_opp",
          init=[list(range(30)), list(range(21, 41))]),
     {1: "8989864d3d71e29bf137f9c78c422a257da70e90f6ac519556a82bd40cc1232f",
      2: "554572da024178b1618d2dc1dff2fbc85182deb6881cb203e7b5af9dbbe0e023"}),
    ("attention-uniform", dict(_ATTENTION, policy="uniform"),
     {1: "132502fee843426fcf59e9300303e41c81e8ee1b117020601a21ceec7ed29dd7",
      2: "8ce96790f91538b2d521933948a2ec65b2467b83aee79d2b253f50329dc988f4"}),
    ("attention-greedy",
     dict(_ATTENTION, l=5, k=6, lambda_init=9.0, policy="greedy"),
     {1: "24482eb5036493e994eb1bfb877a06174ebfb52cf3956d20cfdf5c5f9f76611e",
      2: "76d21b67c523e21f0dbec82bcd514d7a3b3f1c3e37574adea43de9c5ed650dcb"}),
    ("attention-constrained-greedy",
     dict(_ATTENTION, l=4, k=8, policy="constrained_greedy"),
     {1: "c9231fe6e694bff13dce976f97885ee53ace3a4b9bda3b56dd7d9d198bbc91a7",
      2: "45ab610b6c4088fa789cd85d1785d3ee722b1b5a29f4b2bb142db650c81010ea"}),
    ("attention-omniscient",
     dict(_ATTENTION, l=3, k=5, policy="greedy", omniscient=True),
     {1: "b89201084109996f1577e137e697ef7875e23b04bce18544032da447164ddbc3",
      2: "04c1854487d0a5ee4b1e5985dbf8c7673590a6e83111c05b701a104356385049"}),
    # While every count seen is 0, greedy's weights are all 0 and it
    # allocates as if they were all equal.
    ("attention-greedy-all-counts-zero",
     dict(_ATTENTION, policy="greedy", gamma=0.0, lambda_init=0.001),
     {1: "683fb3d1358a91b262d42098920e54d43479575b224e2ccb9527307bfe91a81a",
      2: "60cba5dae3180a22d6685663f426444951450d538aea895e8cccb8ae21fe89a0"}),
    # Above the inversion cutoff every draw takes the PTRS path.
    ("attention-lambda-50", dict(_ATTENTION, lambda_init=50),
     {1: "194e3930a05194e554ee8ae7c693886c2a19751b493741563cd08ee46140bc07",
      2: "f2467641c11ad4299525685a53efb348954de85fcad9daa7a429f513b1b8e96a"}),
    # Integer initial rates: the first step's truth holds the ints.
    ("attention-int-rates",
     dict(_ATTENTION, policy="greedy", lambda_init=[8, 9, 3, 12]),
     {1: "91cf4a55810dc97d156f5fc7cd87615fccdddfae3e190632a82246777347b696",
      2: "38eb8e4234d073212c0d922bb1fe8321fcb8d1c6db755c6ecd641bcedd45f852"}),
    # Uniform draws the monitored pair and skips the rest.  Locations 2
    # and 3 start at or below the inversion cutoff (3 to 29 of the 400
    # steps) and drift above it; location 4 stays above.
    ("attention-uniform-skips-across-the-cutoff",
     dict(_ATTENTION, l=5, policy="uniform",
          lambda_init=[8.0, 8.0, 9.999, 10.0, 40.0]),
     {1: "bbcc0ba7ce4cff96bdfc78f19ea158db7b822654064b999b9812d9889d9b0d51",
      2: "d2c5ca920a8597924d0b6c9792c0637c656eab1e0a7b2cb07c04fbcefb006051"}),
    ("coin", {"kind": "coin", "p1": 0.5, "epsilon": 0.001,
              "horizon": 400},
     {1: "2cb2c79eabb960fe3b3ab0d35b3bf3db404df09afdcc9e1b29f9e6a727041080",
      2: "63aca46a1d55cd69e1b0c94ca44c7f277743eea5080381c4cc07219570f0fe05"}),
]

_ATTENTION_MONITOR = {"kind": "attention", "gamma": 0.0025,
                      "lambda_min": 4.0, "lambda_max": 12.0, "delta": 0.05}

# (id, row of TRACE_DIGESTS, monitor config, {seed: sha256 of the
# estimates runner.monitor_trace writes on that row's trace}).  These pin
# the monitor's float operations across builds: each estimator step, the
# rate clamp, both branches of kernels.eta (the lam <= y one on the
# clamped early intervals) and every flag written.
ESTIMATE_DIGESTS = [
    # Every attended step gives the monitored location one unit.
    ("attention-uniform", "attention-uniform", _ATTENTION_MONITOR,
     {1: "a99cbcdecb980ce3fa689416f4f447ad7935702e3c5ad6b85285e4d2e6c7b518",
      2: "8d4fcff3c47a28c7418c60d8b3c156157c12cf8a12f9c416df21e5be60f37b11"}),
    ("attention-greedy", "attention-greedy", _ATTENTION_MONITOR,
     {1: "163a5a3618390cd4084178bda92678b5061a631f1200ad4697c1ef2f4d34be3a",
      2: "afc5f81283bc5f18b63ad5bb1c3d964d4188ff1b9ae7a9af9b895085f5e0f116"}),
    ("attention-constrained-greedy", "attention-constrained-greedy",
     _ATTENTION_MONITOR,
     {1: "fa623b390cb78c1c805b17893acba0e7e3889ac0314a6df88630b7cbef4569bf",
      2: "2bc73874a5a87fe879c88c004ecd8f0b7c9b19512d36e9af7edc4597c9c7992d"}),
    # A floor this low is crossed early on both seeds: floor_violation
    # is true on most lines.
    ("attention-omniscient-floor-violation", "attention-omniscient",
     dict(_ATTENTION_MONITOR, lambda_min=0.05),
     {1: "15cbdf0e962af53b29c26463633203dc8b3908223352b7a09fd3fbeb82600ad1",
      2: "fb7e8830fac40e21224b2aae5be45389d0e03a4f57e3d0f80d7a4848077d401a"}),
    ("lending-max-reward", "lending-max-reward",
     {"kind": "lending", "n_a": 30, "n_b": 20, "c_max": 40, "delta": 0.05},
     {1: "1d3e40aab6a6f02310211926981961807ad7ce2a848117cf7bde198366dde47f",
      2: "f4513d2cecc0fc7b64b56c23ded0dd296e52ea7913c140bfeeed63fa61c2039e"}),
    ("coin", "coin", {"kind": "coin", "epsilon": 0.001, "delta": 0.05},
     {1: "548b39e9eaeb7b44249f93d2d30e2bfd042ac4194712751c1beeb34e913485e9",
      2: "ee33be918782b9b22c6c66727489ccef67be8b7cc12b63ac8c71037b61017f39"}),
]

# The first 50 draws of poisson(random.Random(7), lam), per lam.
POISSON_DRAWS = {
    0.3: [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 2, 0, 1,
        0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
        0, 1, 0, 0],
    2.0: [
        1, 1, 2, 0, 2, 1, 0, 2, 0, 2, 0, 0, 2, 3, 0, 1, 2, 5, 2, 1, 5, 0, 4,
        1, 1, 0, 1, 3, 1, 2, 2, 1, 2, 0, 0, 1, 3, 2, 1, 2, 2, 1, 3, 3, 1, 2,
        2, 4, 3, 1],
    9.9: [
        8, 7, 11, 6, 10, 9, 5, 10, 5, 9, 5, 6, 9, 13, 6, 7, 11, 15, 10, 9,
        17, 5, 13, 8, 7, 6, 8, 13, 7, 10, 11, 9, 10, 5, 5, 7, 11, 9, 8, 10,
        9, 8, 12, 11, 8, 10, 10, 14, 12, 8],
    10.1: [
        8, 12, 10, 4, 4, 9, 6, 11, 21, 14, 6, 8, 7, 11, 10, 4, 12, 8, 10,
        13, 7, 10, 12, 22, 9, 6, 13, 14, 12, 11, 10, 4, 14, 9, 6, 6, 9, 5,
        8, 9, 18, 7, 7, 11, 9, 17, 10, 12, 9, 5],
    50.0: [
        46, 53, 51, 35, 37, 48, 40, 52, 75, 59, 41, 46, 42, 53, 51, 36, 54,
        46, 49, 57, 44, 50, 55, 48, 42, 56, 59, 54, 52, 49, 36, 57, 48, 42,
        36, 41, 48, 38, 51, 45, 47, 67, 42, 44, 52, 47, 66, 50, 54, 61],
}


def trace_digest(config, seed, path):
    """sha256 of the trace ``runner.simulate`` writes to ``path``."""
    runner.simulate(dict(config, seed=seed), path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def poisson_draws(lam, n=50):
    rng = random.Random(7)
    return [poisson(rng, lam) for _ in range(n)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("config, digests",
                         [row[1:] for row in TRACE_DIGESTS],
                         ids=[row[0] for row in TRACE_DIGESTS])
def test_trace_bytes_are_pinned(config, digests, seed, tmp_path):
    assert trace_digest(config, seed, tmp_path / "trace.jsonl") == \
        digests[seed]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("trace_row, monitor_config, digests",
                         [row[1:] for row in ESTIMATE_DIGESTS],
                         ids=[row[0] for row in ESTIMATE_DIGESTS])
def test_estimate_bytes_are_pinned(trace_row, monitor_config, digests, seed,
                                   tmp_path):
    trace, out = tmp_path / "trace.jsonl", tmp_path / "estimates.jsonl"
    config = {row[0]: row[1] for row in TRACE_DIGESTS}[trace_row]
    runner.simulate(dict(config, seed=seed), trace)
    runner.monitor_trace(trace, monitor_config, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[seed]


@pytest.mark.parametrize("lam", sorted(POISSON_DRAWS))
def test_poisson_draws_are_pinned(lam):
    assert poisson_draws(lam) == POISSON_DRAWS[lam]


def test_inversion_stall_guard_is_pinned():
    # At rate 0.1 the summed cdf stops short of the largest float below
    # 1, so that u takes the guard: 10_000 terms, then k = 10_001.
    class LargestU:
        def random(self):
            return 1.0 - 2.0 ** -53

    assert poisson(LargestU(), 0.1) == 10_001
    assert poisson(LargestU(), 2.0) == 22
