"""Attention-allocation environment over L locations.

Incident counts are Poisson draws whose rates react to the previous
allocation: an ignored location's rate rises by gamma, an attended
location's rate drops by gamma per unit.  The monitored pair is the
first two locations.  Three allocator policies ship: uniform, greedy
(proportional to empirical mean counts), and constrained greedy (a
fairness floor per location, remainder greedy).
"""

import random

from .. import kernels
from ..discovery import MAX_RATE
from ..errors import AssumptionViolation, ConfigError
from ..estimator import _FLOAT_MAX, FrozenConfig, check_sim_size, is_real
from ..monitors import AttentionObservation, attention_change
from ..traceio import _INF, _dumps
from .sampling import poisson, skip_poisson

_new = tuple.__new__

POLICIES = ("uniform", "greedy", "constrained_greedy")


class AttentionSimConfig(FrozenConfig):
    l: int
    k: int
    gamma: float
    horizon: int
    seed: int
    policy: str = "uniform"
    alpha: float = 0.75
    # One positive rate for every location, or a list of l of them.
    lambda_init: float | tuple = 10.0
    omniscient: bool = False

    def __post_init__(self):
        if self.l < 2:
            raise ConfigError(f"need at least 2 locations, got {self.l}")
        check_sim_size("l", self.l)
        # The units a location gets, at most k, are multiplied as floats.
        if not 1 <= self.k <= _FLOAT_MAX:
            raise ConfigError(
                f"k must be in [1, {_FLOAT_MAX:.6g}], got {self.k}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.horizon}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown allocation policy {self.policy!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        rates = self.lambda_init
        many = isinstance(rates, (list, tuple))
        values = rates if many else [rates]
        if (many and len(rates) != self.l
                or not all(is_real(v) and v > 0 for v in values)):
            raise ConfigError(f"lambda_init must be a positive real or a "
                              f"list of {self.l} of them, got {rates!r}")
        if max(values) > MAX_RATE:
            raise ConfigError(
                f"lambda_init must be at most {MAX_RATE}, the largest "
                f"rate the discovery probability is computed at, got "
                f"{rates!r}")
        if (self.alpha != AttentionSimConfig.alpha
                and self.policy != "constrained_greedy"):
            raise ConfigError(f"alpha is read only by policy "
                              f"'constrained_greedy', not by {self.policy!r}")
        if self.omniscient and self.policy == "uniform":
            raise ConfigError("omniscient is read only by the greedy "
                              "policies, not by 'uniform'")
        if many:
            object.__setattr__(self, "lambda_init", tuple(rates))

    def initial_rates(self):
        """The listed rates as given, ints included, or l float copies."""
        if type(self.lambda_init) is tuple:
            return list(self.lambda_init)
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
    empirical mean of raw observed counts per location.  ``learns`` is
    false for the policies that never read those counts (uniform, and
    omniscient greedy), so the environment does not feed them.  For
    those policies it draws only the monitored pair's counts and skips
    the other locations' draws with ``skip_poisson``, which advances the
    generator by exactly the uniforms ``poisson`` would read: every later
    draw, and so the trace, is unchanged."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._l, self._k, self._policy = cfg.l, cfg.k, cfg.policy
        self.learns = cfg.policy != "uniform" and not cfg.omniscient
        self._count_sums = [0.0] * cfg.l
        self._n = 0
        # Greedy is constrained greedy with no floor.
        self._floor = (int(cfg.alpha * cfg.k / cfg.l)
                       if cfg.policy == "constrained_greedy" else 0)

    def _beliefs(self, env):
        if self.cfg.omniscient:
            return list(env.rates)
        if self._n == 0:
            return [1.0] * self._l
        return [s / self._n for s in self._count_sums]

    def allocate(self, env, rng):
        l, k = self._l, self._k
        if self._policy == "uniform":
            alloc = [k // l] * l
            offset = rng.randrange(l)
            for i in range(offset, offset + k % l):
                alloc[i % l] += 1
            return alloc
        floor = self._floor
        extra = _largest_remainder(self._beliefs(env), k - floor * l, rng)
        return [floor + e for e in extra]

    def observe(self, counts):
        self._n += 1
        for i, c in enumerate(counts):
            self._count_sums[i] += c


class AttentionEnv:
    def __init__(self, cfg):
        self.cfg = cfg
        self._k, self._gamma = cfg.k, cfg.gamma
        self.rates = cfg.initial_rates()
        self.t = 0

    def _omega(self, i, y):
        """Discovery probability of location i given y > 0 units.  A rate
        is positive (a step that drives one to 0 raises), so the kernel
        needs only the upper bound checked."""
        rate = self.rates[i]
        if rate > MAX_RATE:
            raise AssumptionViolation(
                f"incident rate of location {i} reached {rate}, "
                f"above the discovery range (0, {MAX_RATE}]", step=self.t)
        return kernels.eta(y, float(rate))

    def step(self, policy, rng):
        """One allocation round; returns (observation over the monitored
        pair, ground-truth dict).  Truth uses the rates the counts were
        drawn from, i.e. before this round's rate shift."""
        self.t += 1
        rates = self.rates
        alloc = policy.allocate(self, rng)
        if policy.learns:
            counts = [poisson(rng, lam) for lam in rates]
            policy.observe(counts)
            x_a, x_b = counts[0], counts[1]
        else:
            # Only the monitored pair's counts are read; the skips keep
            # rng, and so the trace, where the full draw would leave it.
            x_a = poisson(rng, rates[0])
            x_b = poisson(rng, rates[1])
            for lam in rates[2:]:
                skip_poisson(rng, lam)
        lam_a, lam_b = rates[0], rates[1]
        y_a, y_b = alloc[0], alloc[1]
        omega_a = self._omega(0, y_a) if y_a else 0.0
        omega_b = self._omega(1, y_b) if y_b else 0.0
        gamma = self._gamma
        for i, y in enumerate(alloc):
            rates[i] = rate = rates[i] + attention_change(y, gamma)
            if rate <= 0.0:
                raise AssumptionViolation(
                    f"incident rate of location {i} reached {rate}",
                    step=self.t)
        obs = _new(AttentionObservation,
                   (x_a, x_b, y_a, y_b, self._k))
        truth = {"omega_a": omega_a, "omega_b": omega_b,
                 "phi": omega_a - omega_b, "lam_a": lam_a, "lam_b": lam_b}
        return obs, truth


def _steps(cfg):
    """Yield each step's (observation, truth): the one step loop of
    generate and trace_lines."""
    rng = random.Random(cfg.seed)
    env = AttentionEnv(cfg)
    policy = AllocationPolicy(cfg)
    step = env.step
    for _ in range(cfg.horizon):
        yield step(policy, rng)


def generate(cfg):
    """Yield per-step trace payloads for the monitored pair."""
    for t, ((x_a, x_b, y_a, y_b, k), truth) in enumerate(_steps(cfg), 1):
        yield {"t": t, "x_a": x_a, "x_b": x_b, "y_a": y_a, "y_b": y_b,
               "k": k, "truth": truth}


def trace_lines(cfg):
    """Yield each step's line as ``json`` writes generate's payload, an
    int rate as an int; the encoder sees only truth whose sum is not
    finite, and refuses a NaN."""
    for t, ((x_a, x_b, y_a, y_b, k), truth) in enumerate(_steps(cfg), 1):
        w_a, w_b, phi, lam_a, lam_b = truth.values()
        if not -_INF < w_a + w_b + phi + lam_a + lam_b < _INF:
            _dumps(truth)
        yield (f'{{"t":{t!r},"x_a":{x_a!r},"x_b":{x_b!r},"y_a":{y_a!r},'
               f'"y_b":{y_b!r},"k":{k!r},"truth":{{"omega_a":{w_a!r},'
               f'"omega_b":{w_b!r},"phi":{phi!r},"lam_a":{lam_a!r},'
               f'"lam_b":{lam_b!r}}}}}')
