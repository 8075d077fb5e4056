"""Tests for the three simulators and the Poisson sampler.

The key invariant in each environment is self-consistency: the change
the monitor assumes (via the change functions) must equal the change the
environment actually applies, step for step.
"""

import math
import random

import pytest

from fairmon.errors import AssumptionViolation, ConfigError
from fairmon.monitors import attention_change, lending_change, LendingConfig
from fairmon.sim import attention, coin, lending
from fairmon.sim.sampling import poisson
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
        ({"init_scores_a": (0,) * 10, "init_scores_b": (0,) * 10,
          "theta_bank": 0.05}, {(1, 0, 0)}),
        ({"init_scores_a": (20,) * 10, "init_scores_b": (20,) * 10},
         {(1, 1, 0)}),
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
        cfg = self.make_cfg(init_scores_a=(20,) * 10, init_scores_b=(0,) * 10,
                            init="mid-bias")
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
        cfg = self.make_cfg(n_a=1, n_b=1, init_scores_a=(15,),
                            init_scores_b=(5,))
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
        cfg = self.make_cfg(n_a=2, n_b=2, init_scores_a=(10, 6),
                            init_scores_b=(12, 14))
        env = lending.LendingEnv(cfg)
        pol = lending.EqOppPolicy(theta_bank=0.5)
        assert pol.grant_probability_below(env, "A") == pytest.approx(1.0)
        assert pol.grant_probability_below(env, "B") == 0.0

    def test_eq_opp_fallback_without_repay_mass(self):
        cfg = self.make_cfg(n_a=1, n_b=1, rho_min=0.0, rho_max=0.4,
                            init_scores_a=(0,), init_scores_b=(5,))
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

    @pytest.mark.parametrize("a, b", [
        ([1, 2, 3], None), (None, [9, 9, 9]), (5, [1, 1, 1]),
        ([1, 2, 30], [1, 1, 1]), ([1, 2, -1], [1, 1, 1]),
        ([1, 2, True], [1, 1, 1]), ([1, 2, 3.0], [1, 1, 1]),
        ([1, 2], [1, 1, 1]), ([1, 2, 3], "abc"),
    ], ids=["a-only", "b-only", "not-a-list", "above-c-max", "negative",
            "bool-score", "float-score", "short", "text"])
    def test_rejects_bad_initial_scores(self, a, b):
        # Checked at construction, before a trace file is opened.
        with pytest.raises(ConfigError):
            self.make_cfg(n_a=3, n_b=3, c_max=10, init_scores_a=a,
                          init_scores_b=b)


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
        cfg = self.make_cfg(policy="greedy")
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
        cfg_c = self.make_cfg(policy="constrained_greedy", alpha=0.75)
        cfg_g = self.make_cfg(policy="greedy")
        env = attention.AttentionEnv(cfg_c)
        pol_c = attention.AllocationPolicy(cfg_c)
        pol_g = attention.AllocationPolicy(cfg_g)
        counts = [3, 1, 4, 1, 5]
        pol_c.observe(counts)
        pol_g.observe(counts)
        assert pol_c.allocate(env, random.Random(4)) == \
            pol_g.allocate(env, random.Random(4))

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
        [True, 5], [1.0], [1.0, 0.0], [1.0, "2"], 5, [1.0, 10 ** 400],
        [1.0, 700.5],
    ], ids=["bool-rate", "short", "zero-rate", "text-rate", "not-a-list",
            "huge-rate", "above-max-rate"])
    def test_rejects_bad_initial_rates(self, rates):
        with pytest.raises(ConfigError):
            self.make_cfg(l=2, k=2, lambda_init_per_location=rates)
