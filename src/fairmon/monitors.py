"""Composed disparity monitors.

A monitor runs one shift-corrected estimator per group at budget
delta / len(groups), so its group intervals hold together at confidence
1 - delta (union bound).  Lending and attention report the interval
difference of groups A and B, inconclusive until both groups have an
estimate; the coin monitor reports the interval of its one group, A.
"""

from collections import namedtuple

from .discovery import (MAX_RATE, check_max_rate, eta_interval,
                        poisson_subexp_params)
from .errors import ConfigError, a_or_an
from .estimator import (_FLOAT_MAX, FrozenConfig, ShiftedMeanEstimator,
                        SubExpParams, _check_delta, _check_population,
                        azuma_epsilon, check_known_fields, state_field)
from .intervals import ConfidenceInterval, interval_sub, trusted_interval

GROUPS = ("A", "B")

# The outputs below are built from checked parts; ``tuple.__new__``
# skips namedtuple's Python-level ``__new__``.
_new = tuple.__new__

# A rate interval is clamped into [RATE_FLOOR, MAX_RATE] before the
# discovery-probability mapping, which requires 0 < rate <= MAX_RATE.
RATE_FLOOR = 1e-9

# The largest float as an int: a count above it does not convert to a
# float.  An int compares with it faster than with the float.
_FLOAT_MAX_INT = int(_FLOAT_MAX)


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


class Monitor:
    """One estimator per group of ``groups`` at budget
    delta / len(groups); a two-group monitor's disparity interval is the
    difference of the latest outputs of groups A and B.

    A subclass sets ``kind``, ``config_type`` and ``observation_type``
    (a namedtuple whose fields are those of a trace record), and
    ``groups`` if not A and B, passes its tail parameters to
    ``__init__``, and defines ``update``: check the observation, advance
    ``t``, update each observed group's estimator with its sample and
    the shift its change function gives, store the reported interval in
    ``_last`` and return the output (:meth:`_emit` for two groups).

    A subclass whose quantity has a known floor sets ``floor_violation``
    once the net shift may have driven the quantity through zero; the
    flag then stays set, and every later output carries it.
    """

    kind = None
    groups = GROUPS

    def __init__(self, cfg, params):
        self.cfg = cfg
        budget = cfg.delta / len(self.groups)
        # Every reported group interval holds at this level.
        self._confidence = 1.0 - budget
        self._estimators = {
            g: ShiftedMeanEstimator(budget, params) for g in self.groups
        }
        self._last = {g: None for g in self.groups}
        self.floor_violation = False
        self.t = 0

    def estimator(self, g):
        return self._estimators[g]

    def _emit(self, clamped=False):
        last_a, last_b = self._last["A"], self._last["B"]
        phi = None
        if last_a is not None and last_b is not None:
            phi = interval_sub(last_a, last_b)
        return _new(MonitorOutput, (self.t, phi, {"A": last_a, "B": last_b},
                                    clamped, self.floor_violation))

    def state_dict(self):
        return {
            "t": self.t,
            "estimators": {g: self._estimators[g].state_dict()
                           for g in self.groups},
            "last": {g: None if ci is None else [ci.lo, ci.hi]
                     for g, ci in self._last.items()},
            "floor_violation": self.floor_violation,
        }

    def load_state_dict(self, state):
        """Restore what :meth:`state_dict` returned, read back from a
        snapshot; a missing or ill-typed field raises ValueError or
        TypeError naming its path from ``state``, then a field that
        :meth:`state_dict` does not write raises ValueError naming it,
        and facts that disagree raise ValueError (:meth:`_check_state`)."""
        self.t = state_field(state, "state", "t", "a nonnegative integer")
        estimators = state_field(state, "state", "estimators", "an object")
        last = state_field(state, "state", "last", "an object")
        for g in self.groups:
            self._estimators[g].load_state_dict(
                state_field(estimators, "state.estimators", g, "an object"),
                f"state.estimators.{g}")
            raw = state_field(last, "state.last", g,
                              "null or two finite numbers lo <= hi")
            if (raw is None) != (self._estimators[g].t == 0):
                raise ValueError(
                    f"state.last.{g} must be null exactly when estimator "
                    f"{g} has no updates")
            self._last[g] = None if raw is None else ConfidenceInterval(
                float(raw[0]), float(raw[1]), self._confidence)
        self.floor_violation = state_field(state, "state", "floor_violation",
                                           "a bool")
        check_known_fields(state, self.state_dict())
        self._check_state()

    def _check_state(self):
        """Raise ValueError if the loaded state's facts disagree.  By
        default each record updates the estimator of its own group only,
        and no floor is tracked."""
        counts = [self._estimators[g].t for g in self.groups]
        if self.t != sum(counts):
            raise ValueError(
                f"t={self.t} differs from the group step counts "
                + " + ".join(map(str, counts)))
        if self.floor_violation:
            raise ValueError(f"floor_violation is never set by a "
                             f"{self.kind} monitor")


# --------------------------------------------------------------------
# Lending
# --------------------------------------------------------------------

class LendingObservation(namedtuple("LendingObservation", "x g y z")):
    """One lending event: credit score, group, grant decision, repayment."""

    __slots__ = ()


class LendingConfig(FrozenConfig):
    n_a: int
    n_b: int
    c_max: int
    delta: float

    def __post_init__(self):
        _check_population(self.n_a, self.n_b, self.c_max)
        _check_delta(self.delta)
        # A group's first interval, at budget delta/2, is its widest.
        eps = azuma_epsilon(1, self.delta / 2, _lending_params(self))
        if eps > _FLOAT_MAX:
            raise ConfigError(
                f"c_max={self.c_max} is too large for delta={self.delta}: "
                f"the half-width of the first interval overflows")


def _lending_params(cfg):
    """A score in [0, c_max] is sub-gaussian with variance proxy c_max**2."""
    return SubExpParams(float(cfg.c_max) ** 2, 0.0)


def lending_change(obs, cfg):
    """Shift in the observed group's mean credit score caused by one event:
    +-1/N_g on a repaid/defaulted grant, unless the score pins at a bound.
    ``cfg`` is a monitor or a simulator config: the simulator moves the
    applicant's score by the sign of this shift."""
    x, g, y, z = obs
    if y == 1 and z == 1 and x < cfg.c_max:
        return 1.0 / (cfg.n_a if g == "A" else cfg.n_b)
    if y == 1 and z == 0 and x > 0:
        return -1.0 / (cfg.n_a if g == "A" else cfg.n_b)
    return 0.0


class LendingMonitor(Monitor):
    """Streams lending events; estimates the disparity in mean credit
    score between groups A and B."""

    kind = "lending"
    config_type = LendingConfig
    observation_type = LendingObservation

    def __init__(self, cfg):
        super().__init__(cfg, _lending_params(cfg))

    def update(self, obs):
        x, g, y, z = obs
        if g not in GROUPS:
            raise ValueError(f"unknown group {g!r}")
        # JSON true/false and 1.0 pass the range checks, so types first.
        if type(x) is not int or type(y) is not int or type(z) is not int:
            raise TypeError(
                f"score, decision and reaction must be integers: {obs}")
        cfg = self.cfg
        if not 0 <= x <= cfg.c_max:
            raise ValueError(f"credit score {x} outside [0, {cfg.c_max}]")
        if y not in (0, 1) or z not in (0, 1):
            raise ValueError(f"decision/reaction must be 0 or 1: {obs}")
        self.t += 1
        self._last[g] = self._estimators[g].update(
            x, lending_change(obs, cfg))
        return self._emit()


# --------------------------------------------------------------------
# Attention allocation
# --------------------------------------------------------------------

class AttentionObservation(namedtuple("AttentionObservation",
                                      "x_a x_b y_a y_b k")):
    """One allocation round over the monitored pair of locations:
    sampled counts (incidents are x+1), attention units, total capacity."""

    __slots__ = ()


class AttentionConfig(FrozenConfig):
    gamma: float
    lambda_min: float
    lambda_max: float
    delta: float

    def __post_init__(self):
        check_gamma(self.gamma)
        if not 0 < self.lambda_min < self.lambda_max:
            raise ConfigError(
                "rate bounds must satisfy 0 < lambda_min < lambda_max, got "
                f"[{self.lambda_min}, {self.lambda_max}]")
        check_max_rate("lambda_max", self.lambda_max)
        _check_delta(self.delta)


def check_gamma(gamma):
    """Raise ConfigError unless the rate step ``gamma`` of
    :func:`attention_change` is nonnegative."""
    if gamma < 0:
        raise ConfigError(f"gamma must be nonnegative, got {gamma}")


def attention_change(y_units, gamma):
    """Shift in a location's incident rate after receiving y_units of
    attention: +gamma when ignored, -gamma*y_units otherwise."""
    if y_units == 0:
        return gamma
    return -gamma * y_units


class AttentionMonitor(Monitor):
    """Streams allocation rounds; estimates the disparity in incident
    discovery probability between the two monitored locations."""

    kind = "attention"
    config_type = AttentionConfig
    observation_type = AttentionObservation

    def __init__(self, cfg):
        super().__init__(cfg, poisson_subexp_params(cfg.lambda_max))
        # Read on every update; the config is immutable.
        self._gamma = cfg.gamma
        self._lambda_min = cfg.lambda_min
        # No attention discovers nothing: the mapping degenerates to 0.
        self._nothing = ConfidenceInterval(0.0, 0.0, self._confidence)

    def update(self, obs):
        x_a, x_b, y_a, y_b, k = obs
        if type(x_a) is not int or type(x_b) is not int \
                or type(y_a) is not int or type(y_b) is not int \
                or type(k) is not int:
            raise TypeError(f"counts and capacity must be integers: {obs}")
        if not (x_a >= 0 <= x_b and y_a >= 0 <= y_b and k >= 1):
            raise ValueError(f"negative counts or capacity in {obs}")
        if y_a + y_b > k:
            raise ValueError(
                f"allocation {y_a}+{y_b} exceeds capacity {k}")
        # The estimators take the counts and the units as floats; the
        # units are at most k.
        if not x_a <= _FLOAT_MAX_INT >= x_b or k > _FLOAT_MAX_INT:
            for name, value in zip(("x_a", "x_b", "y_a", "y_b"),
                                   (x_a, x_b, y_a, y_b)):
                if value > _FLOAT_MAX_INT:
                    raise ValueError(
                        f"{name}={value} is too large for a float")
        self.t += 1
        clamped_a = self._group("A", x_a, y_a)
        clamped_b = self._group("B", x_b, y_b)
        return self._emit(clamped_a or clamped_b)

    def _group(self, g, x, y):
        """Update location ``g`` with its count ``x`` and ``y`` attention
        units, and store its discovery-probability interval; returns
        whether the rate interval was clamped into ``[RATE_FLOOR,
        MAX_RATE]``, the range ``eta`` maps.  The upper clamp loses
        nothing: the true rate is at most ``lambda_max``, which the
        config bounds by ``MAX_RATE``."""
        est = self._estimators[g]
        rate_ci = est.update(x, attention_change(y, self._gamma))
        # ``_d`` is the net shift: the property would cost a call.
        if self._lambda_min + est._d <= 0.0:
            self.floor_violation = True
        lo, hi, confidence = rate_ci
        clamped = lo < RATE_FLOOR or hi > MAX_RATE
        if y == 0:
            self._last[g] = self._nothing
            return clamped
        if clamped:
            rate_ci = trusted_interval(
                min(max(lo, RATE_FLOOR), MAX_RATE),
                min(max(hi, RATE_FLOOR), MAX_RATE), confidence)
        self._last[g] = eta_interval(y, rate_ci)
        return clamped

    def _check_state(self):
        t_a, t_b = self._estimators["A"].t, self._estimators["B"].t
        # Each round updates both locations' estimators.
        if not t_a == t_b == self.t:
            raise ValueError(
                f"t={self.t} differs from the group step counts "
                f"{t_a}, {t_b}")
        # The update that brought a net shift to the floor set the flag.
        # A set flag cannot be checked: a later shift may have moved back.
        if not self.floor_violation:
            for g in self.groups:
                if self.cfg.lambda_min + self._estimators[g].net_shift <= 0.0:
                    raise ValueError(
                        f"floor_violation is false, but lambda_min plus "
                        f"the net shift of {g} is at or below 0")


# --------------------------------------------------------------------
# Coin (single drifting Bernoulli stream; no disparity, the monitored
# property is the bias itself)
# --------------------------------------------------------------------

class CoinObservation(namedtuple("CoinObservation", "x")):
    __slots__ = ()


class CoinMonitorConfig(FrozenConfig):
    epsilon: float
    delta: float

    def __post_init__(self):
        check_epsilon(self.epsilon)
        _check_delta(self.delta)


def check_epsilon(epsilon):
    """Raise ConfigError unless the bias step ``epsilon`` of
    :func:`coin_change` is in [0, 1)."""
    if not 0 <= epsilon < 1:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")


def coin_change(obs, epsilon):
    """Shift in the coin's bias after one toss: +epsilon after a 1,
    -epsilon after a 0."""
    return epsilon if obs.x == 1 else -epsilon


class CoinMonitor(Monitor):
    """Tracks the drifting bias of a single coin-toss stream, group A."""

    kind = "coin"
    config_type = CoinMonitorConfig
    observation_type = CoinObservation
    groups = ("A",)

    def __init__(self, cfg):
        # Outcomes lie in [0, 1]: lending's (c_max**2, 0) with c_max = 1.
        super().__init__(cfg, SubExpParams(1.0, 0.0))

    def update(self, obs):
        if type(obs.x) is not int:
            raise TypeError(f"coin outcome must be an integer: {obs}")
        if obs.x not in (0, 1):
            raise ValueError(f"coin outcome must be 0 or 1, got {obs.x}")
        self.t += 1
        ci = self._last["A"] = self._estimators["A"].update(
            obs.x, coin_change(obs, self.cfg.epsilon))
        return _new(MonitorOutput, (self.t, ci, {"A": ci, "B": None},
                                    False, False))


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
    return cls(cls.config_type.from_fields(cfg, a_or_an(f"{kind} monitor")))
