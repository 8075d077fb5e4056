"""Composed disparity monitors.

A two-group monitor runs one shift-corrected estimator per group at
budget delta/2 and reports the interval difference of the two per-group
outputs at overall confidence 1 - delta (union bound).  Before both
groups have produced an estimate the output is marked inconclusive.
"""

from collections import namedtuple
from dataclasses import dataclass

from .discovery import MAX_RATE, eta_interval, poisson_subexp_params
from .errors import ConfigError
from .estimator import (ShiftedMeanEstimator, SubExpParams, _check_delta,
                        _check_population, check_field_types, state_count,
                        state_real)
from .intervals import ConfidenceInterval, interval_sub

GROUPS = ("A", "B")

# A rate interval is clamped into [RATE_FLOOR, MAX_RATE] before the
# discovery-probability mapping, which requires 0 < rate <= MAX_RATE.
RATE_FLOOR = 1e-9


class MonitorOutput(namedtuple(
        "MonitorOutput", "t phi per_group clamped floor_violation",
        defaults=(False, False))):
    """Per-step result: the disparity interval ``phi`` (None while
    inconclusive) and the component intervals it was formed from,
    ``per_group``, keyed by group."""

    __slots__ = ()

    @property
    def conclusive(self):
        return self.phi is not None


class TwoGroupMonitor:
    """One estimator per group at budget delta/2; the disparity interval
    is the difference of the latest outputs of groups A and B.

    A subclass sets ``kind``, ``config_type`` and ``observation_type``
    (a namedtuple whose fields are those of a trace record), passes its
    tail parameters and change function to ``__init__``, and defines
    ``update``: check the observation, advance ``t``, store each updated
    group's reported interval in ``_last`` and return :meth:`_emit`.
    The change function must not reference the monitor: a cycle would
    leave every discarded monitor to the cyclic garbage collector.

    A subclass whose quantity has a known floor sets ``floor_violation``
    once the net shift may have driven the quantity through zero; the
    flag then stays set, and every later output carries it.
    """

    kind = None

    def __init__(self, cfg, params, change_fn):
        self.cfg = cfg
        # Every reported group interval holds at this level.
        self._confidence = 1.0 - cfg.delta / 2.0
        self._estimators = {
            g: ShiftedMeanEstimator(change_fn, cfg.delta / 2.0, params)
            for g in GROUPS
        }
        self._last = {g: None for g in GROUPS}
        self.floor_violation = False
        self.t = 0

    def estimator(self, g):
        return self._estimators[g]

    def _emit(self, clamped=False):
        last_a, last_b = self._last["A"], self._last["B"]
        phi = None
        if last_a is not None and last_b is not None:
            phi = interval_sub(last_a, last_b)
        return MonitorOutput(self.t, phi, {"A": last_a, "B": last_b},
                             clamped, self.floor_violation)

    def state_dict(self):
        return {
            "t": self.t,
            "estimators": {g: self._estimators[g].state_dict()
                           for g in GROUPS},
            "last": {g: None if ci is None else [ci.lo, ci.hi]
                     for g, ci in self._last.items()},
            "floor_violation": self.floor_violation,
        }

    def load_state_dict(self, state):
        self.t = state_count(state["t"])
        for g in GROUPS:
            self._estimators[g].load_state_dict(state["estimators"][g])
            raw = state["last"][g]
            self._last[g] = None if raw is None else ConfidenceInterval(
                *map(state_real, raw), self._confidence)
        flag = state["floor_violation"]
        if type(flag) is not bool:
            raise TypeError(f"floor_violation must be a bool, got {flag!r}")
        self.floor_violation = flag


# --------------------------------------------------------------------
# Lending
# --------------------------------------------------------------------

class LendingObservation(namedtuple("LendingObservation", "x g y z")):
    """One lending event: credit score, group, grant decision, repayment."""

    __slots__ = ()


@dataclass(frozen=True)
class LendingConfig:
    n_a: int
    n_b: int
    c_max: int
    delta: float

    def __post_init__(self):
        check_field_types(self)
        _check_population(self.n_a, self.n_b, self.c_max)
        _check_delta(self.delta)

    def group_size(self, g):
        return self.n_a if g == "A" else self.n_b


def lending_change(obs, cfg):
    """Shift in the observed group's mean credit score caused by one event:
    +-1/N_g on a repaid/defaulted grant, unless the score pins at a bound."""
    if obs.y == 1 and obs.z == 1 and obs.x < cfg.c_max:
        return 1.0 / cfg.group_size(obs.g)
    if obs.y == 1 and obs.z == 0 and obs.x > 0:
        return -1.0 / cfg.group_size(obs.g)
    return 0.0


class LendingMonitor(TwoGroupMonitor):
    """Streams lending events; estimates the disparity in mean credit
    score between groups A and B."""

    kind = "lending"
    config_type = LendingConfig
    observation_type = LendingObservation

    def __init__(self, cfg):
        super().__init__(cfg, SubExpParams(float(cfg.c_max) ** 2, 0.0),
                         lambda obs: lending_change(obs, cfg))

    def update(self, obs):
        x, g, y, z = obs
        if g not in GROUPS:
            raise ValueError(f"unknown group {g!r}")
        # JSON true/false and 1.0 pass the range checks, so types first.
        if type(x) is not int or type(y) is not int or type(z) is not int:
            raise TypeError(
                f"score, decision and reaction must be integers: {obs}")
        if not 0 <= x <= self.cfg.c_max:
            raise ValueError(
                f"credit score {x} outside [0, {self.cfg.c_max}]")
        if y not in (0, 1) or z not in (0, 1):
            raise ValueError(f"decision/reaction must be 0 or 1: {obs}")
        self.t += 1
        self._last[g] = self._estimators[g].update(obs)
        return self._emit()


# --------------------------------------------------------------------
# Attention allocation
# --------------------------------------------------------------------

class AttentionObservation(namedtuple("AttentionObservation",
                                      "x_a x_b y_a y_b k")):
    """One allocation round over the monitored pair of locations:
    sampled counts (incidents are x+1), attention units, total capacity."""

    __slots__ = ()


@dataclass(frozen=True)
class AttentionConfig:
    gamma: float
    lambda_min: float
    lambda_max: float
    delta: float

    def __post_init__(self):
        check_field_types(self)
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if not 0 < self.lambda_min < self.lambda_max:
            raise ConfigError(
                "rate bounds must satisfy 0 < lambda_min < lambda_max, got "
                f"[{self.lambda_min}, {self.lambda_max}]")
        if self.lambda_max > MAX_RATE:
            raise ConfigError(
                f"lambda_max must be at most {MAX_RATE}, the largest rate "
                f"the discovery probability is computed at, got "
                f"{self.lambda_max}")
        _check_delta(self.delta)


def attention_change(y_units, gamma):
    """Shift in a location's incident rate after receiving y_units of
    attention: +gamma when ignored, -gamma*y_units otherwise."""
    if y_units == 0:
        return gamma
    return -gamma * y_units


class _GroupStep(namedtuple("_GroupStep", "x y")):
    """Per-location slice of an attention observation."""

    __slots__ = ()


class AttentionMonitor(TwoGroupMonitor):
    """Streams allocation rounds; estimates the disparity in incident
    discovery probability between the two monitored locations."""

    kind = "attention"
    config_type = AttentionConfig
    observation_type = AttentionObservation

    def __init__(self, cfg):
        super().__init__(cfg, poisson_subexp_params(cfg.lambda_max),
                         lambda step: attention_change(step.y, cfg.gamma))
        # No attention discovers nothing: the mapping degenerates to 0.
        self._nothing = ConfidenceInterval(0.0, 0.0, self._confidence)

    def update(self, obs):
        x_a, x_b, y_a, y_b, k = obs
        if type(x_a) is not int or type(x_b) is not int \
                or type(y_a) is not int or type(y_b) is not int \
                or type(k) is not int:
            raise TypeError(f"counts and capacity must be integers: {obs}")
        if min(x_a, x_b, y_a, y_b) < 0 or k < 1:
            raise ValueError(f"negative counts or capacity in {obs}")
        if y_a + y_b > k:
            raise ValueError(
                f"allocation {y_a}+{y_b} exceeds capacity {k}")
        self.t += 1
        clamped_a = self._group("A", _GroupStep(x_a, y_a))
        clamped_b = self._group("B", _GroupStep(x_b, y_b))
        return self._emit(clamped_a or clamped_b)

    def _group(self, g, step):
        """Update location ``g`` and store its discovery-probability
        interval; returns whether the rate interval was clamped into
        ``[RATE_FLOOR, MAX_RATE]``, the range ``eta`` maps.  The upper
        clamp loses nothing: the true rate is at most ``lambda_max``,
        which the config bounds by ``MAX_RATE``."""
        est = self._estimators[g]
        rate_ci = est.update(step)
        if self.cfg.lambda_min + est.net_shift <= 0.0:
            self.floor_violation = True
        lo, hi, confidence = rate_ci
        clamped = lo < RATE_FLOOR or hi > MAX_RATE
        if step.y == 0:
            self._last[g] = self._nothing
            return clamped
        if clamped:
            rate_ci = ConfidenceInterval(
                min(max(lo, RATE_FLOOR), MAX_RATE),
                min(max(hi, RATE_FLOOR), MAX_RATE), confidence)
        self._last[g] = eta_interval(step.y, rate_ci)
        return clamped


# --------------------------------------------------------------------
# Coin (single drifting Bernoulli stream; no disparity, the monitored
# property is the bias itself)
# --------------------------------------------------------------------

class CoinObservation(namedtuple("CoinObservation", "x")):
    __slots__ = ()


@dataclass(frozen=True)
class CoinMonitorConfig:
    epsilon: float
    delta: float

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.epsilon < 1:
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        _check_delta(self.delta)


def coin_change(obs, epsilon):
    return epsilon if obs.x == 1 else -epsilon


class CoinMonitor:
    """Tracks the drifting bias of a single coin-toss stream."""

    kind = "coin"
    config_type = CoinMonitorConfig
    observation_type = CoinObservation

    def __init__(self, cfg):
        self.cfg = cfg
        # Outcomes lie in [0, 1]: lending's (c_max**2, 0) with c_max = 1.
        self._estimator = ShiftedMeanEstimator(
            lambda obs, eps=cfg.epsilon: coin_change(obs, eps),
            cfg.delta, SubExpParams(1.0, 0.0))
        self.t = 0

    @property
    def estimator(self):
        return self._estimator

    def update(self, obs):
        if type(obs.x) is not int:
            raise TypeError(f"coin outcome must be an integer: {obs}")
        if obs.x not in (0, 1):
            raise ValueError(f"coin outcome must be 0 or 1, got {obs.x}")
        self.t += 1
        ci = self._estimator.update(obs)
        return MonitorOutput(self.t, ci, {"A": ci, "B": None})

    def state_dict(self):
        return {"t": self.t, "estimator": self._estimator.state_dict()}

    def load_state_dict(self, state):
        self.t = state_count(state["t"])
        self._estimator.load_state_dict(state["estimator"])


# --------------------------------------------------------------------
# Construction from plain config dicts (CLI / snapshot surface)
# --------------------------------------------------------------------

MONITORS = {cls.kind: cls
            for cls in (LendingMonitor, AttentionMonitor, CoinMonitor)}


def build_monitor(config):
    """Build a monitor from a plain dict with a ``kind`` field."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    cls = MONITORS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown monitor kind {kind!r}")
    try:
        return cls(cls.config_type(**cfg))
    except TypeError as exc:
        raise ConfigError(
            f"bad monitor config for kind {kind!r}: {exc}") from exc
