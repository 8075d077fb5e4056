"""Acceptance suite: ten end-to-end checks at pinned tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them).  Oracles are independent re-derivations: scipy's Poisson
pmf for the series oracle, numpy Monte Carlo for the sampling oracle,
and closed-form algebra for the width law.
"""

import filecmp
import math
import random

import numpy as np
import pytest
from scipy.stats import poisson as sp_poisson

from fairmon import ShiftedMeanEstimator, SubExpParams, azuma_epsilon
from fairmon.discovery import eta
from fairmon.monitors import (
    AttentionMonitor,
    AttentionConfig,
    LendingConfig,
    LendingMonitor,
    LendingObservation,
)
from fairmon.sim import attention, coin, lending
from fairmon import runner, traceio


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:2d} [{status}] {name}{suffix}")
    assert ok, f"acceptance criterion {number}: {name}{suffix}"


def series_oracle(y, lam):
    """Truncated series sum_k min(k+1,y)/(k+1) pmf(k; lam), tail < 1e-12."""
    k_max = int(lam) + 10
    while sp_poisson.sf(k_max, lam) >= 1e-12:
        k_max += 10
    ks = np.arange(k_max + 1)
    weights = np.minimum(ks + 1, y) / (ks + 1)
    return float(np.sum(weights * sp_poisson.pmf(ks, lam)))


class TestAcceptance:

    def test_01_interval_coverage_on_drifting_coin(self):
        # 2000 seeded runs of the drifting coin; at t=1000 the interval
        # must contain the true bias in at least 95% of runs
        runs, horizon = 2000, 1000
        params = SubExpParams(1.0, 0.0)
        hits = 0
        for seed in range(runs):
            cfg = coin.CoinConfig(p1=0.5, epsilon=0.001, horizon=horizon,
                                  seed=seed)
            proc = coin.CoinProcess(cfg)
            rng = random.Random(seed)
            est = ShiftedMeanEstimator(0.05, params)
            ci = truth = None
            for _ in range(horizon):
                x, p_used = proc.step(rng)
                truth = p_used
                ci = est.update(x, 0.001 if x == 1 else -0.001)
            if ci.lo <= truth <= ci.hi:
                hits += 1
        coverage = hits / runs
        report(1, "estimator interval coverage at t=1000",
               coverage >= 0.95, f"coverage={coverage:.4f}")

    def test_02_initial_mean_estimate_is_unbiased(self):
        # 10,000 runs of length 100; the mean of the de-shifted estimate
        # must match the starting bias within 3 standard errors
        runs, horizon, p1 = 10_000, 100, 0.5
        params = SubExpParams(1.0, 0.0)
        estimates = np.empty(runs)
        for seed in range(runs):
            cfg = coin.CoinConfig(p1=p1, epsilon=0.001, horizon=horizon,
                                  seed=seed)
            proc = coin.CoinProcess(cfg)
            rng = random.Random(seed)
            est = ShiftedMeanEstimator(0.05, params)
            for _ in range(horizon):
                x, _ = proc.step(rng)
                est.update(x, 0.001 if x == 1 else -0.001)
            estimates[seed] = est.point_estimate_initial()
        err = abs(float(np.mean(estimates)) - p1)
        bound = 3 * float(np.std(estimates, ddof=1)) / math.sqrt(runs)
        report(2, "initial mean estimate unbiased over 10k runs",
               err <= bound, f"|bias|={err:.2e} <= {bound:.2e}")

    def test_03_discovery_probability_matches_oracles(self):
        # series oracle within 1e-10; Monte Carlo (10^6 draws) within 4
        # standard errors.  With zero observed variance the plug-in
        # stderr degenerates to 0 for a quantity that is provably not
        # exactly 1, so it is floored at 1/n, one observation's leverage
        # on the mean of a (0, 1]-bounded variable.
        n = 1_000_000
        worst_series = worst_mc = 0.0
        ok = True
        rng = np.random.default_rng(2024)
        for y in (1, 3, 6, 10):
            for lam in (0.5, 1.0, 5.0, 20.0):
                val = eta(y, lam)
                d_series = abs(val - series_oracle(y, lam))
                worst_series = max(worst_series, d_series)
                draws = rng.poisson(lam, n)
                ratios = np.minimum(draws + 1, y) / (draws + 1)
                stderr = max(float(np.std(ratios, ddof=1)) / math.sqrt(n),
                             1.0 / n)
                d_mc = abs(val - float(np.mean(ratios)))
                worst_mc = max(worst_mc, d_mc / stderr)
                ok = ok and d_series <= 1e-10 and d_mc <= 4 * stderr
        report(3, "discovery probability matches series and MC oracles",
               ok, f"max series diff={worst_series:.2e}, "
                   f"max MC z={worst_mc:.2f}")

    def test_04_discovery_probability_monotone_in_rate(self):
        # y in 1..20, lam in (0, 50] step 0.1: the sequence must never
        # increase.  Mathematically it is strictly decreasing; at double
        # precision values deep in the lam << y regime round to 1.0, so
        # equal adjacent doubles are accepted there and strictness is
        # required whenever the values are resolvable (below 1 - 1e-12)
        increases = weak_ties = 0
        for y in range(1, 21):
            values = [eta(y, round(0.1 * i, 10)) for i in range(1, 501)]
            for a, b in zip(values, values[1:]):
                if b > a:
                    increases += 1
                elif b == a and a < 1.0 - 1e-12:
                    weak_ties += 1
        report(4, "discovery probability decreasing on dense grid",
               increases == 0 and weak_ties == 0,
               f"increases={increases}, unresolved ties={weak_ties}")

    def test_05_mgf_inequality_on_grid(self):
        # exp(c) - c - 1 <= c^2 with 1e-15 slack on 10,001 points
        violations = 0
        for i in range(10_001):
            c = -0.5 + i / 10_000.0
            if math.exp(c) - c - 1.0 > c * c + 1e-15:
                violations += 1
        report(5, "moment inequality exp(c)-c-1 <= c^2 on [-0.5, 0.5]",
               violations == 0, f"violations={violations}")

    def test_06_lending_end_to_end_coverage(self):
        # 500 seeded lending runs, horizon 5000; containment of the true
        # score disparity at t in {100, 1000, 5000} must each be >= 0.95
        runs = 500
        checkpoints = (100, 1000, 5000)
        hits = {t: 0 for t in checkpoints}
        mon_cfg = LendingConfig(n_a=100, n_b=100, c_max=100, delta=0.05)
        for seed in range(runs):
            sim_cfg = lending.LendingSimConfig(
                n_a=100, n_b=100, c_max=100, horizon=5000, seed=seed)
            env = lending.LendingEnv(sim_cfg)
            policy = lending.make_policy(sim_cfg)
            rng = random.Random(seed)
            mon = LendingMonitor(mon_cfg)
            for t in range(1, 5001):
                obs, truth = env.step(policy, rng)
                out = mon.update(obs)
                if t in hits and out.conclusive \
                        and out.phi.lo <= truth["phi"] <= out.phi.hi:
                    hits[t] += 1
        rates = {t: hits[t] / runs for t in checkpoints}
        report(6, "lending pipeline coverage at t=100/1000/5000",
               all(r >= 0.95 for r in rates.values()),
               ", ".join(f"t={t}: {r:.3f}" for t, r in rates.items()))

    def test_07_attention_end_to_end_coverage(self):
        # 500 seeded attention runs (5 locations, 6 units, gamma=0.0025);
        # containment of the true discovery disparity at t in {100, 1000}
        # must each be >= 0.95 and the rate floor check must never trip
        runs = 500
        checkpoints = (100, 1000)
        hits = {t: 0 for t in checkpoints}
        floor_tripped = False
        mon_cfg = AttentionConfig(gamma=0.0025, lambda_min=4.0,
                                  lambda_max=12.0, delta=0.05)
        for seed in range(runs):
            sim_cfg = attention.AttentionSimConfig(
                l=5, k=6, gamma=0.0025, horizon=1000, seed=seed)
            env = attention.AttentionEnv(sim_cfg)
            policy = attention.AllocationPolicy(sim_cfg)
            rng = random.Random(seed)
            mon = AttentionMonitor(mon_cfg)
            for t in range(1, 1001):
                obs, truth = env.step(policy, rng)
                out = mon.update(obs)
                floor_tripped = floor_tripped or out.floor_violation
                if t in hits and out.conclusive \
                        and out.phi.lo <= truth["phi"] <= out.phi.hi:
                    hits[t] += 1
        rates = {t: hits[t] / runs for t in checkpoints}
        report(7, "attention pipeline coverage at t=100/1000",
               all(r >= 0.95 for r in rates.values()) and not floor_tripped,
               ", ".join(f"t={t}: {r:.3f}" for t, r in rates.items())
               + f", floor tripped={floor_tripped}")

    def test_08_interval_width_law(self):
        # the disparity half-width equals the sum of the two per-group
        # bounds, and with nu=0 it decays exactly as 1/sqrt(t)
        cfg = LendingConfig(n_a=100, n_b=100, c_max=100, delta=0.05)
        params = SubExpParams(100.0 ** 2, 0.0)
        mon = LendingMonitor(cfg)
        ok = True
        worst = 0.0
        t_a = t_b = 0
        for t in range(1, 513):
            g = "A" if t % 2 else "B"
            out = mon.update(LendingObservation(x=50, g=g, y=0, z=0))
            if g == "A":
                t_a += 1
            else:
                t_b += 1
            if not out.conclusive:
                continue
            want = azuma_epsilon(t_a, 0.025, params) \
                + azuma_epsilon(t_b, 0.025, params)
            rel = abs(out.phi.width / 2.0 - want) / want
            worst = max(worst, rel)
            ok = ok and rel <= 1e-12
        # decay: with equal step counts the half-width is proportional
        # to 1/sqrt(t), so quadrupling t must halve it
        for t in (1, 4, 16, 64):
            e1 = azuma_epsilon(t, 0.025, params)
            e4 = azuma_epsilon(4 * t, 0.025, params)
            ok = ok and abs(e4 - e1 / 2.0) <= 1e-12 * e1
        report(8, "interval width equals summed bounds and decays 1/sqrt(t)",
               ok, f"max relative defect={worst:.2e}")

    def test_09_update_latency(self):
        # medians over synthetic in-memory updates, scaled tolerance:
        # < 100 us per lending update, < 1 ms per attention update
        lend_summary = runner.bench("lending", 200_000, seed=1)
        attn_summary = runner.bench("attention", 50_000, seed=1)
        ok = lend_summary["median_us"] < 100.0 \
            and attn_summary["median_us"] < 1000.0
        report(9, "per-update latency budgets",
               ok, f"lending median={lend_summary['median_us']:.2f} us, "
                   f"attention median={attn_summary['median_us']:.2f} us")

    def test_10_determinism_and_snapshot_transparency(self, tmp_path):
        sims = [
            {"kind": "coin", "p1": 0.5, "epsilon": 0.001, "horizon": 200,
             "seed": 11},
            {"kind": "lending", "n_a": 10, "n_b": 10, "c_max": 20,
             "horizon": 200, "seed": 11},
            {"kind": "attention", "l": 5, "k": 6, "gamma": 0.0025,
             "horizon": 200, "seed": 11},
        ]
        ok = True
        for sim in sims:
            a = tmp_path / f"{sim['kind']}_a.jsonl"
            b = tmp_path / f"{sim['kind']}_b.jsonl"
            runner.simulate(sim, str(a))
            runner.simulate(sim, str(b))
            ok = ok and filecmp.cmp(str(a), str(b), shallow=False)

        trace = tmp_path / "fixture.jsonl"
        runner.simulate({"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10,
                         "horizon": 10, "seed": 3}, str(trace))
        mon = {"kind": "lending", "n_a": 5, "n_b": 5, "c_max": 10,
               "delta": 0.05}
        whole = tmp_path / "whole.jsonl"
        runner.monitor_trace(str(trace), mon, str(whole))
        _, records = traceio.read_records(str(whole), "estimates")
        want = list(records)
        lines = trace.read_text().splitlines()
        for split in range(0, 11):
            head = tmp_path / "head.jsonl"
            tail = tmp_path / "tail.jsonl"
            head.write_text("".join(
                line + "\n" for line in [lines[0]] + lines[1:1 + split]))
            tail.write_text("".join(
                line + "\n" for line in [lines[0]] + lines[1 + split:]))
            snap = tmp_path / "snap.json"
            est1 = tmp_path / "est1.jsonl"
            est2 = tmp_path / "est2.jsonl"
            runner.monitor_trace(str(head), mon, str(est1),
                                 snapshot_out=str(snap))
            runner.monitor_trace(str(tail), None, str(est2),
                                 snapshot_in=str(snap))
            _, r1 = traceio.read_records(str(est1), "estimates")
            _, r2 = traceio.read_records(str(est2), "estimates",
                                         start_t=split + 1)
            ok = ok and list(r1) + list(r2) == want
        report(10, "byte-identical reruns and split/unsplit equivalence", ok)
