"""Coin-toss process with outcome-dependent bias drift."""

import random

from ..errors import AssumptionViolation, ConfigError
from ..estimator import FrozenConfig
from ..monitors import CoinObservation, coin_change

_new = tuple.__new__


class CoinConfig(FrozenConfig):
    p1: float
    epsilon: float
    horizon: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.p1 < 1.0:
            raise ConfigError(f"p1 must be in (0, 1), got {self.p1}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.horizon}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


class CoinProcess:
    """Bias shifts by ``monitors.coin_change`` after each toss (+epsilon
    after a 1, -epsilon after a 0); aborts if it would leave (0, 1)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.p = cfg.p1
        self.t = 0

    def step(self, rng):
        """One toss; returns (outcome, bias used for this toss)."""
        self.t += 1
        p_used = self.p
        x = 1 if rng.random() < self.p else 0
        self.p += coin_change(_new(CoinObservation, (x,)), self.cfg.epsilon)
        if not 0.0 < self.p < 1.0:
            raise AssumptionViolation(
                f"coin bias left (0, 1): p={self.p}", step=self.t)
        return x, p_used


def generate(cfg):
    """Yield per-step trace payloads with the true bias as ground truth."""
    rng = random.Random(cfg.seed)
    proc = CoinProcess(cfg)
    for t in range(1, cfg.horizon + 1):
        x, p_used = proc.step(rng)
        yield {"t": t, "x": x, "truth": {"phi": p_used}}
