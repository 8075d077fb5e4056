"""Attention-allocation environment over L locations.

Incident counts are Poisson draws whose rates react to the previous
allocation: an ignored location's rate rises by gamma, an attended
location's rate drops by gamma per unit.  The monitored pair is the
first two locations.  Three allocator policies ship: uniform, greedy
(proportional to empirical mean counts), and constrained greedy (a
fairness floor per location, remainder greedy).
"""

import random
from dataclasses import dataclass
from typing import Optional

from ..discovery import MAX_RATE, eta
from ..errors import AssumptionViolation, ConfigError
from ..estimator import check_field_types, is_real
from ..monitors import AttentionObservation, attention_change
from .sampling import poisson

POLICIES = ("uniform", "greedy", "constrained_greedy")


@dataclass(frozen=True)
class AttentionSimConfig:
    l: int
    k: int
    gamma: float
    horizon: int
    seed: int
    policy: str = "uniform"
    alpha: float = 0.75
    lambda_init: float = 10.0
    lambda_init_per_location: Optional[tuple] = None
    omniscient: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.l < 2:
            raise ConfigError(f"need at least 2 locations, got {self.l}")
        if self.k < 1:
            raise ConfigError(f"capacity must be positive, got {self.k}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.horizon}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown allocation policy {self.policy!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        rates = self.lambda_init_per_location
        if rates is None:
            rates = (self.lambda_init,) * self.l
        if not (isinstance(rates, (list, tuple)) and len(rates) == self.l
                and all(is_real(v) and v > 0 for v in rates)):
            raise ConfigError(f"initial rates must be {self.l} positive "
                              f"reals, got {rates!r}")

    def initial_rates(self):
        if self.lambda_init_per_location is not None:
            return list(self.lambda_init_per_location)
        return [float(self.lambda_init)] * self.l


def _largest_remainder(weights, k, rng):
    """Allocate k units proportionally to nonnegative weights, floors
    first, remainder by largest fractional part with seeded tie order."""
    n = len(weights)
    total = sum(weights)
    if total <= 0.0:
        weights, total = [1.0] * n, float(n)
    quotas = [k * w / total for w in weights]
    alloc = [int(q) for q in quotas]
    remainder = k - sum(alloc)
    tie = rng.sample(range(n), n)
    order = sorted(range(n),
                   key=lambda i: (-(quotas[i] - alloc[i]), tie[i]))
    for i in order[:remainder]:
        alloc[i] += 1
    return alloc


class AllocationPolicy:
    """Deterministic given (seed, history); greedy variants track the
    empirical mean of raw observed counts per location."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._count_sums = [0.0] * cfg.l
        self._n = 0

    def _beliefs(self, env):
        if self.cfg.omniscient:
            return list(env.rates)
        if self._n == 0:
            return [1.0] * self.cfg.l
        return [s / self._n for s in self._count_sums]

    def allocate(self, env, rng):
        l, k = self.cfg.l, self.cfg.k
        if self.cfg.policy == "uniform":
            alloc = [k // l] * l
            offset = rng.randrange(l)
            for i in range(k % l):
                alloc[(offset + i) % l] += 1
            return alloc
        beliefs = self._beliefs(env)
        if self.cfg.policy == "greedy":
            return _largest_remainder(beliefs, k, rng)
        base = int(self.cfg.alpha * k / l)
        alloc = [base] * l
        extra = _largest_remainder(beliefs, k - base * l, rng)
        return [a + e for a, e in zip(alloc, extra)]

    def observe(self, counts):
        self._n += 1
        for i, c in enumerate(counts):
            self._count_sums[i] += c


class AttentionEnv:
    def __init__(self, cfg):
        self.cfg = cfg
        self.rates = cfg.initial_rates()
        self.t = 0

    def _omega(self, i, y):
        """Discovery probability of location i given y units."""
        if y == 0:
            return 0.0
        if self.rates[i] > MAX_RATE:
            raise AssumptionViolation(
                f"incident rate of location {i} reached {self.rates[i]}, "
                f"above the discovery range (0, {MAX_RATE}]", step=self.t)
        return eta(y, self.rates[i])

    def step(self, policy, rng):
        """One allocation round; returns (observation over the monitored
        pair, ground-truth dict).  Truth uses the rates the counts were
        drawn from, i.e. before this round's rate shift."""
        self.t += 1
        alloc = policy.allocate(self, rng)
        counts = [poisson(rng, lam) for lam in self.rates]
        policy.observe(counts)
        lam_a, lam_b = self.rates[0], self.rates[1]
        y_a, y_b = alloc[0], alloc[1]
        omega_a, omega_b = self._omega(0, y_a), self._omega(1, y_b)
        for i in range(self.cfg.l):
            self.rates[i] += attention_change(alloc[i], self.cfg.gamma)
            if self.rates[i] <= 0.0:
                raise AssumptionViolation(
                    f"incident rate of location {i} reached "
                    f"{self.rates[i]}", step=self.t)
        obs = AttentionObservation(x_a=counts[0], x_b=counts[1],
                                   y_a=y_a, y_b=y_b, k=self.cfg.k)
        truth = {"omega_a": omega_a, "omega_b": omega_b,
                 "phi": omega_a - omega_b, "lam_a": lam_a, "lam_b": lam_b}
        return obs, truth


def generate(cfg):
    """Yield per-step trace payloads for the monitored pair."""
    rng = random.Random(cfg.seed)
    env = AttentionEnv(cfg)
    policy = AllocationPolicy(cfg)
    for t in range(1, cfg.horizon + 1):
        obs, truth = env.step(policy, rng)
        yield {"t": t, "x_a": obs.x_a, "x_b": obs.x_b,
               "y_a": obs.y_a, "y_b": obs.y_b, "k": obs.k, "truth": truth}
