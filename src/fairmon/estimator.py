"""Shift-corrected streaming mean estimator.

Tracks the conditional mean of a drifting feature from a single
observation stream.  Each update takes a sample and the exact shift its
observation causes in that mean, which the caller reads off a known
change function; the estimator removes the accumulated shift from each
incoming sample, averages the de-shifted residuals, and adds the shift
back to estimate the current mean.  A concentration bound on the
de-shifted average gives a per-step confidence interval.
"""

import math
import sys

from . import kernels
from .errors import ConfigError
from .intervals import ConfidenceInterval, bad_endpoints

_FLOAT_MAX = sys.float_info.max
_INF = math.inf
_new = tuple.__new__


def is_real(value):
    """A finite int or float, not a bool (which JSON ``true`` would
    become).  An int too large for a float is not finite."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def check_field_types(obj):
    """Raise ConfigError unless every ``int``, ``float``, ``bool`` or
    ``str`` field of the :class:`FrozenConfig` ``obj`` holds that type:
    a ``float`` field a real as :func:`is_real` has it, any other of
    these fields a value of exactly its type (so not a bool for an
    int).  Fields of other types are left to the caller.  The fields
    are read from the class annotations."""
    for name, ftype in type(obj).__annotations__.items():
        value = getattr(obj, name)
        if ftype is float:
            ok = is_real(value)
        elif ftype in (int, bool, str):
            ok = type(value) is ftype
        else:
            continue
        if not ok:
            raise ConfigError(f"{name} must be {ftype.__name__}, "
                              f"got {value!r}")


_setattr = object.__setattr__


class FrozenConfig:
    """Base of the package's immutable configs.

    A subclass annotates its fields in order, gives the trailing ones a
    default as a class attribute, and checks the values in
    ``__post_init__``, which runs after :func:`check_field_types`.
    Instances are built with keyword or positional arguments, with the
    ``TypeError`` of an ordinary call for an unknown or missing field;
    equality, hash and ``repr`` follow the fields, and setting or
    deleting an attribute raises ``AttributeError``.

    Not a frozen dataclass: importing ``dataclasses`` loads ``inspect``
    and ``ast``, about 1 MB of peak RSS, into every stage.  As in a
    dataclass, each subclass gets a generated ``__init__`` that stores
    every field in the instance dict, so a field reads as fast as a
    plain attribute.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        # A default is written into the signature, so a field without
        # one after a field with one is a SyntaxError, as it would be in
        # a hand-written __init__.
        params = "".join(f", {f}=_defaults[{f!r}]" if f in cls.__dict__
                         else f", {f}" for f in fields)
        body = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
        namespace = {"_set": _setattr, "_check": check_field_types,
                     "_defaults": cls.__dict__}
        exec(f"def __init__(self{params}):{body}"
             f"\n _check(self)\n self.__post_init__()", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields = fields

    @classmethod
    def from_fields(cls, fields, what):
        """``cls(**fields)``, where an unknown or missing field is a
        ConfigError, raised before the call, that names it and ``what``
        the config is for."""
        for name in fields:
            if name not in cls._fields:
                raise ConfigError(f"unknown field {name!r} for {what}")
        for name in cls._fields:
            if name not in fields and name not in cls.__dict__:
                raise ConfigError(f"missing field {name!r} for {what}")
        return cls(**fields)

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SubExpParams(FrozenConfig):
    """Sub-exponential tail parameters (variance proxy, scale) of the
    centered feature.  ``nu == 0`` is the sub-gaussian case."""

    sigma_sq: float
    nu: float

    def __post_init__(self):
        if self.sigma_sq < 0 or self.nu < 0:
            raise ConfigError(
                f"invalid parameters: sigma_sq={self.sigma_sq}, nu={self.nu}")
        if self.sigma_sq == 0 and self.nu == 0:
            raise ConfigError("invalid parameters: sigma_sq and nu both zero")


def _check_delta(delta):
    """A failure budget in (0, 1) large enough that the per-group level
    ``1 - delta/2`` of a two-group monitor stays below 1 in floating
    point: the intervals the package builds take that level unchecked."""
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"invalid confidence: delta={delta} not in (0, 1)")
    if not 1.0 - delta / 2.0 < 1.0:
        raise ConfigError(
            f"invalid confidence: delta={delta} is too small, 1 - delta/2 "
            f"rounds to 1")


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


# The most members of a lending group, or locations, a simulator takes:
# it keeps one list entry for each.  It also caps ``fairmon bench``'s
# updates, as the bench keeps one latency sample for each.
MAX_SIM_SIZE = 2 ** 20


def check_sim_size(name, value):
    """Raise ConfigError if a simulator's count ``name`` is past
    :data:`MAX_SIM_SIZE`, before any list of that length is built."""
    if value > MAX_SIM_SIZE:
        raise ConfigError(
            f"{name} must be at most {MAX_SIM_SIZE}, got {value}")


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
    the :class:`SubExpParams` are fixed at construction."""

    __slots__ = ("_confidence", "_log_term", "_sigma_sq", "_nu", "t",
                 "_e1_hat", "_d", "_d_comp")

    def __init__(self, delta, params):
        _check_delta(delta)
        self._confidence = 1.0 - delta
        self._log_term = math.log(2.0 / delta)
        self._sigma_sq = params.sigma_sq
        self._nu = params.nu
        self.t = 0
        self._e1_hat = 0.0   # running estimate of the initial mean
        self._d = 0.0        # net shift, compensated summation
        self._d_comp = 0.0

    @property
    def params(self):
        return SubExpParams(self._sigma_sq, self._nu)

    def update(self, x, shift):
        """Consume one sample ``x`` and the ``shift`` its observation
        causes in the mean; returns the confidence interval for the
        conditional mean at this step (given history, excluding
        ``shift``)."""
        x = float(x)
        shift = float(shift)
        if not (-_INF < x < _INF and -_INF < shift < _INF):
            raise ValueError(
                f"corrupt observation: x={x}, shift={shift}")
        (self.t, self._e1_hat, self._d, self._d_comp,
         e_hat, eps) = kernels.estimator_step(
            self.t, self._e1_hat, self._d, self._d_comp, x, shift,
            self._log_term, self._sigma_sq, self._nu)
        # trusted_interval, inline: the confidence 1 - delta was checked
        # at construction, so only the endpoints are.
        lo = e_hat - eps
        hi = e_hat + eps
        if not -_INF < lo <= hi < _INF:
            bad_endpoints(lo, hi)
        return _new(ConfidenceInterval, (lo, hi, self._confidence))

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

    def load_state_dict(self, state, name="state"):
        """Restore what :meth:`state_dict` returned, read back from a
        snapshot at path ``name``; a missing or ill-typed field raises
        ValueError or TypeError naming its path."""
        self.t = state_field(state, name, "t", "a nonnegative integer")
        self._e1_hat, self._d, self._d_comp = [
            float(state_field(state, name, key, "a finite number"))
            for key in ("e1_hat", "d", "d_comp")]


# What a field of a state read back from a snapshot may be, as its error
# says, and the test of a value that is.  A bool is no integer or number
# here: JSON ``true`` would become one.
STATE_FIELDS = {
    "a nonnegative integer": lambda v: type(v) is int and v >= 0,
    "a finite number": is_real,
    "a bool": lambda v: type(v) is bool,
    "an object": lambda v: type(v) is dict,
    "null or two finite numbers lo <= hi": lambda v: v is None or (
        type(v) is list and len(v) == 2 and is_real(v[0])
        and is_real(v[1]) and v[0] <= v[1]),
}


def state_field(state, path, key, want):
    """``state[key]``, where ``state`` is the object at ``path`` of a
    state read back from a snapshot and the value must be ``want``, a
    key of :data:`STATE_FIELDS`.  A missing key is a ValueError and any
    other value a TypeError, each naming the field by its path."""
    if key not in state:
        raise ValueError(f"{path}.{key} is missing")
    value = state[key]
    if not STATE_FIELDS[want](value):
        raise TypeError(f"{path}.{key} must be {want}, got {value!r}")
    return value
