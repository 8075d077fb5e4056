"""Lending environment: two score-tracked groups, a parametric bank
policy, and a linear repayment model.

The repayment probability is rho(x) = rho_min + (rho_max - rho_min) *
x / c_max, monotone in the credit score.  The two bank policies are
deliberately simple, documented approximations: a reward maximizer that
grants whenever the repayment probability clears a threshold, and an
equalized-opportunity variant that randomizes sub-threshold grants so
that would-repay applicants of both groups are granted at the same rate.
"""

import random

from ..errors import ConfigError
from ..estimator import (FrozenConfig, _check_population, check_run,
                         check_sim_size)
from ..monitors import LendingObservation, lending_change
from ..traceio import _INF, _dumps

_new = tuple.__new__

PRESETS = {
    # (A score range, B score range) as fractions of c_max.
    "low-bias": ((0.52, 0.95), (0.48, 0.91)),
    "mid-bias": ((0.55, 0.95), (0.40, 0.80)),
    "high-bias": ((0.60, 0.98), (0.20, 0.56)),
}


class LendingSimConfig(FrozenConfig):
    n_a: int
    n_b: int
    c_max: int
    horizon: int
    seed: int
    policy: str = "max_reward"
    theta_bank: float = 0.5
    rho_min: float = 0.1
    rho_max: float = 0.95
    # A preset name, or two lists of integer scores in [0, c_max]: group
    # A's n_a, then group B's n_b.
    init: str | tuple = "mid-bias"
    use_true_tallies: bool = True

    def __post_init__(self):
        _check_population(self.n_a, self.n_b, self.c_max)
        check_sim_size("n_a", self.n_a)
        check_sim_size("n_b", self.n_b)
        check_run(self.horizon, self.seed)
        if self.policy not in ("max_reward", "eq_opp"):
            raise ConfigError(f"unknown lending policy {self.policy!r}")
        if not 0.0 <= self.rho_min <= self.rho_max <= 1.0:
            raise ConfigError(
                f"need 0 <= rho_min <= rho_max <= 1, got "
                f"[{self.rho_min}, {self.rho_max}]")
        init = self.init
        if type(init) is str:
            if init not in PRESETS:
                raise ConfigError(f"unknown initial-score preset {init!r}")
        elif not (isinstance(init, (list, tuple)) and len(init) == 2 and all(
                isinstance(scores, (list, tuple)) and len(scores) == n
                and all(type(x) is int and 0 <= x <= self.c_max
                        for x in scores)
                for scores, n in zip(init, (self.n_a, self.n_b)))):
            raise ConfigError(
                f"init must be a preset or lists of {self.n_a} and "
                f"{self.n_b} scores in [0, {self.c_max}], got {init!r}")
        else:
            object.__setattr__(self, "init", tuple(map(tuple, init)))
        if not self.use_true_tallies and self.policy != "eq_opp":
            raise ConfigError(f"use_true_tallies is read only by policy "
                              f"'eq_opp', not by {self.policy!r}")


def _spread_scores(n, lo_frac, hi_frac, c_max):
    lo, hi = lo_frac * c_max, hi_frac * c_max
    if n == 1:
        return [round(0.5 * (lo + hi))]
    return [round(lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def initial_scores(cfg):
    if type(cfg.init) is tuple:
        return list(cfg.init[0]), list(cfg.init[1])
    (a_lo, a_hi), (b_lo, b_hi) = PRESETS[cfg.init]
    return (_spread_scores(cfg.n_a, a_lo, a_hi, cfg.c_max),
            _spread_scores(cfg.n_b, b_lo, b_hi, cfg.c_max))


class LendingEnv:
    """Per-individual score state; score sums are integers so the group
    means are exact."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._n_a, self._n_b = cfg.n_a, cfg.n_b
        self._rho_min, self._c_max = cfg.rho_min, cfg.c_max
        self._rho_span = cfg.rho_max - cfg.rho_min
        scores_a, scores_b = initial_scores(cfg)
        self.scores = {"A": scores_a, "B": scores_b}
        self.sums = {g: sum(s) for g, s in self.scores.items()}

    def rho(self, x):
        return self._rho_min + self._rho_span * x / self._c_max

    def group_mean(self, g):
        return self.sums[g] / len(self.scores[g])

    def step(self, policy, rng):
        """One lending round; returns (observation, ground-truth dict).

        The recorded truth is the pair of group means *before* this
        round's score change, which is what the monitor's step-t output
        estimates.
        """
        n_a, sums = self._n_a, self.sums
        # The group means, as group_mean has them: each group holds its
        # configured number of scores.
        psi_a, psi_b = sums["A"] / n_a, sums["B"] / self._n_b
        # Uniform over the combined population.
        pick = rng.randrange(n_a + self._n_b)
        if pick < n_a:
            g, idx = "A", pick
        else:
            g, idx = "B", pick - n_a
        scores = self.scores[g]
        x = scores[idx]
        y = policy.decide(x, g, self, rng)
        z = 0
        if y == 1:
            z = 1 if rng.random() < self.rho(x) else 0
        obs = _new(LendingObservation, (x, g, y, z))
        # The monitor's change function is the one rule for the score.
        shift = lending_change(obs, self.cfg)
        if shift:
            step = 1 if shift > 0.0 else -1
            scores[idx] = x + step
            sums[g] += step
        truth = {"psi_a": psi_a, "psi_b": psi_b, "phi": psi_a - psi_b}
        return obs, truth


class MaxRewardPolicy:
    """Grants iff the known repayment probability clears theta_bank."""

    def __init__(self, theta_bank):
        self.theta_bank = theta_bank

    def decide(self, x, g, env, rng):
        return 1 if env.rho(x) >= self.theta_bank else 0


class EqOppPolicy:
    """Approximately equalizes P(grant | would repay, group).

    Above-threshold applicants are always granted; below-threshold
    applicants are granted with a group-specific probability chosen so
    both groups' would-repay grant rates match the better group's.
    Falls back to plain thresholding (``fell_back`` is set) when a group
    has no would-repay mass.

    With ``use_true_tallies`` the would-repay masses are summed over the
    current scores of the whole group.  Otherwise they are summed over
    every applicant seen so far, at the score they arrived with: each
    group keeps a running ``(total, above)`` mass to which ``decide``
    adds ``rho(x)`` on arrival, so a step costs O(1) whatever the
    horizon.  The running sums add the same floats in the same order,
    starting from ``0.0``, as a rescan of the append-only list of seen
    scores would, so the masses, and hence the traces, are bit-identical
    to that rescan.
    """

    def __init__(self, theta_bank, use_true_tallies=True):
        self.theta_bank = theta_bank
        self.use_true_tallies = use_true_tallies
        self.fell_back = False
        self._seen_mass = {"A": (0.0, 0.0), "B": (0.0, 0.0)}

    def _repay_mass(self, env, g):
        """(total would-repay mass, mass already granted by thresholding)."""
        if not self.use_true_tallies:
            return self._seen_mass[g]
        total = above = 0.0
        for x in env.scores[g]:
            r = env.rho(x)
            total += r
            if r >= self.theta_bank:
                above += r
        return total, above

    def grant_probability_below(self, env, g):
        """Probability of granting a below-threshold applicant of group g."""
        total_a, above_a = self._repay_mass(env, "A")
        total_b, above_b = self._repay_mass(env, "B")
        if total_a == 0.0 or total_b == 0.0:
            self.fell_back = True
            return 0.0
        target = max(above_a / total_a, above_b / total_b)
        total, above = (total_a, above_a) if g == "A" else (total_b, above_b)
        slack = total - above
        if slack <= 0.0:
            return 0.0
        return min(1.0, (target * total - above) / slack)

    def decide(self, x, g, env, rng):
        r = env.rho(x)
        if not self.use_true_tallies:
            total, above = self._seen_mass[g]
            self._seen_mass[g] = (
                total + r, above + r if r >= self.theta_bank else above)
        if r >= self.theta_bank:
            return 1
        # On fallback the probability is 0, i.e. plain thresholding.
        q = self.grant_probability_below(env, g)
        return 1 if rng.random() < q else 0


def make_policy(cfg):
    if cfg.policy == "max_reward":
        return MaxRewardPolicy(cfg.theta_bank)
    return EqOppPolicy(cfg.theta_bank, cfg.use_true_tallies)


def _steps(cfg):
    """Yield each step's (observation, truth): the one step loop of
    generate and trace_lines."""
    rng = random.Random(cfg.seed)
    env = LendingEnv(cfg)
    policy = make_policy(cfg)
    step = env.step
    for _ in range(cfg.horizon):
        yield step(policy, rng)


def generate(cfg):
    """Yield per-step trace payloads with exact group means as truth."""
    for t, ((x, g, y, z), truth) in enumerate(_steps(cfg), 1):
        yield {"t": t, "x": x, "g": g, "y": y, "z": z, "truth": truth}


def trace_lines(cfg):
    """Yield each step's line as ``json`` writes generate's payload; the
    encoder sees only truth whose sum is not finite, and refuses a NaN."""
    for t, ((x, g, y, z), truth) in enumerate(_steps(cfg), 1):
        a, b, phi = truth.values()
        if not -_INF < a + b + phi < _INF:
            _dumps(truth)
        yield (f'{{"t":{t!r},"x":{x!r},"g":"{g}","y":{y!r},"z":{z!r},'
               f'"truth":{{"psi_a":{a!r},"psi_b":{b!r},"phi":{phi!r}}}}}')
