"""Shift-corrected streaming mean estimator.

Tracks the conditional mean of a drifting feature from a single
observation stream.  A known change function reports, per observation,
the exact shift it causes in that mean; the estimator removes the
accumulated shift from each incoming sample, averages the de-shifted
residuals, and adds the shift back to estimate the current mean.  A
concentration bound on the de-shifted average gives a per-step
confidence interval.
"""

import math
import sys
from dataclasses import dataclass

from . import kernels
from .errors import ConfigError
from .intervals import ConfidenceInterval


@dataclass(frozen=True)
class SubExpParams:
    """Sub-exponential tail parameters (variance proxy, scale) of the
    centered feature.  ``nu == 0`` is the sub-gaussian case."""

    sigma_sq: float
    nu: float

    def __post_init__(self):
        check_field_types(self)
        if self.sigma_sq < 0 or self.nu < 0:
            raise ConfigError(
                f"invalid parameters: sigma_sq={self.sigma_sq}, nu={self.nu}")
        if self.sigma_sq == 0 and self.nu == 0:
            raise ConfigError("invalid parameters: sigma_sq and nu both zero")


_FLOAT_MAX = sys.float_info.max


def is_real(value):
    """A finite int or float, not a bool (which JSON ``true`` would
    become).  An int too large for a float is not finite."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def check_field_types(obj):
    """Raise ConfigError unless every ``int``, ``float`` or ``bool``
    field of the dataclass ``obj`` holds that type: an ``int`` field an
    int, a ``float`` field a real as :func:`is_real` has it, a ``bool``
    field a bool.  Fields of other types are left to the caller.

    The fields are read from the class annotations: ``dataclasses.fields``
    builds a tuple from a generator, which counts toward the cyclic
    garbage collector's next run, and a resumed run builds a monitor per
    batch."""
    for name, ftype in type(obj).__annotations__.items():
        value = getattr(obj, name)
        if ftype is int:
            ok = type(value) is int
        elif ftype is float:
            ok = is_real(value)
        elif ftype is bool:
            ok = type(value) is bool
        else:
            continue
        if not ok:
            raise ConfigError(f"{name} must be {ftype.__name__}, "
                              f"got {value!r}")


def _check_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"invalid confidence: delta={delta} not in (0, 1)")


_C_MAX_LIMIT = math.sqrt(_FLOAT_MAX)


def _check_population(n_a, n_b, c_max):
    """Group sizes and score ceiling of a lending population, shared by
    the lending monitor and simulator configs.  The sizes are divided
    into as floats and ``c_max`` is squared as one."""
    if not (1 <= n_a <= _FLOAT_MAX and 1 <= n_b <= _FLOAT_MAX):
        raise ConfigError(
            f"group sizes must be in [1, {_FLOAT_MAX:.6g}]: n_a={n_a}, "
            f"n_b={n_b}")
    if not 1 <= c_max <= _C_MAX_LIMIT:
        raise ConfigError(
            f"c_max must be in [1, {_C_MAX_LIMIT:.6g}], got {c_max}")


def state_count(value):
    """A step count read back from a snapshot: a nonnegative int (not a
    bool, which JSON ``true`` would become)."""
    if type(value) is not int or value < 0:
        raise TypeError(f"expected a nonnegative integer, got {value!r}")
    return value


def state_real(value):
    """A real read back from a snapshot: see :func:`is_real`."""
    if not is_real(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def azuma_epsilon(t, delta, params):
    """Interval half-width after t updates at confidence budget delta.

    max( sqrt(2*sigma_sq/t * ln(2/delta)), (2*nu/t) * ln(2/delta) );
    nonincreasing in t, nondecreasing in sigma_sq, nu and 1/delta.
    """
    if t < 1:
        raise ConfigError(f"invalid step count t={t}")
    _check_delta(delta)
    return kernels.azuma_epsilon(t, math.log(2.0 / delta),
                                 params.sigma_sq, params.nu)


class ShiftedMeanEstimator:
    """Single-writer streaming estimator; updates must be applied in
    trace order.  Distinct instances are independent.  ``delta`` and
    ``params`` are fixed at construction."""

    __slots__ = ("change_fn", "_delta", "_params", "_confidence",
                 "_log_term", "_sigma_sq", "_nu", "t", "_e1_hat", "_d",
                 "_d_comp")

    def __init__(self, change_fn, delta, params):
        _check_delta(delta)
        if not isinstance(params, SubExpParams):
            params = SubExpParams(*params)
        self.change_fn = change_fn
        self._delta = delta
        self._params = params
        self._confidence = 1.0 - delta
        self._log_term = math.log(2.0 / delta)
        self._sigma_sq = params.sigma_sq
        self._nu = params.nu
        self.t = 0
        self._e1_hat = 0.0   # running estimate of the initial mean
        self._d = 0.0        # net shift, compensated summation
        self._d_comp = 0.0

    @property
    def delta(self):
        return self._delta

    @property
    def params(self):
        return self._params

    def update(self, record):
        """Consume one observation; returns the confidence interval for
        the conditional mean at this step (given history, excluding the
        shift this record itself causes)."""
        x = float(record.x)
        shift = float(self.change_fn(record))
        if not (math.isfinite(x) and math.isfinite(shift)):
            raise ValueError(
                f"corrupt observation: x={x}, shift={shift}")
        (self.t, self._e1_hat, self._d, self._d_comp,
         e_hat, eps) = kernels.estimator_step(
            self.t, self._e1_hat, self._d, self._d_comp, x, shift,
            self._log_term, self._sigma_sq, self._nu)
        return ConfidenceInterval(e_hat - eps, e_hat + eps,
                                  self._confidence)

    def point_estimate_initial(self):
        """Running estimate of the mean before any observed shift."""
        if self.t == 0:
            raise RuntimeError("no observations")
        return self._e1_hat

    def point_estimate(self):
        """Estimate including every shift observed so far, i.e. the
        conditional mean for the *next* step.  The interval returned by
        :meth:`update` is centered at the pre-shift value instead."""
        if self.t == 0:
            raise RuntimeError("no observations")
        return self._e1_hat + self._d

    @property
    def net_shift(self):
        return self._d

    def state_dict(self):
        return {"t": self.t, "e1_hat": self._e1_hat,
                "d": self._d, "d_comp": self._d_comp}

    def load_state_dict(self, state):
        self.t = state_count(state["t"])
        self._e1_hat = state_real(state["e1_hat"])
        self._d = state_real(state["d"])
        self._d_comp = state_real(state["d_comp"])
