"""Closed real intervals carrying a confidence level, plus the
difference operation the monitors need."""

import math
from collections import namedtuple

_INF = math.inf
_new = tuple.__new__


class ConfidenceInterval(namedtuple("ConfidenceInterval",
                                    "lo hi confidence")):
    """Immutable ``(lo, hi, confidence)``; every construction is
    validated by :meth:`__post_init__`."""

    __slots__ = ()

    def __new__(cls, lo, hi, confidence):
        self = _new(cls, (lo, hi, confidence))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (and _replace, which calls it) builds
        # the tuple directly and would skip the checks.
        return cls(*iterable)

    def __post_init__(self):
        lo, hi, confidence = self
        # One chained comparison passes exactly the finite lo <= hi
        # (NaN fails every comparison).
        if not -_INF < lo <= hi < _INF:
            bad_endpoints(lo, hi)
        # A union-bound combination may exhaust the budget, hence lo of 0.
        if not 0.0 <= confidence < 1.0:
            raise ValueError(f"invalid confidence {confidence}")

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, value):
        return self.lo <= value <= self.hi


def bad_endpoints(lo, hi):
    """Raise the error for endpoints that fail ``-inf < lo <= hi < inf``."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval endpoints must be finite")
    raise ValueError(f"invalid interval: lo={lo} > hi={hi}")


def trusted_interval(lo, hi, confidence):
    """A :class:`ConfidenceInterval` whose ``confidence`` the package
    derived from a checked delta, so only the endpoints are checked,
    with the same errors.  The public constructor checks everything."""
    if not -_INF < lo <= hi < _INF:
        bad_endpoints(lo, hi)
    return _new(ConfidenceInterval, (lo, hi, confidence))


def interval_sub(a, b):
    """Difference a - b; the error budgets add (union bound), which
    keeps the confidence in [0, 1) for two valid intervals.  The
    endpoints get :func:`trusted_interval`'s check, inline."""
    a_lo, a_hi, a_conf = a
    b_lo, b_hi, b_conf = b
    confidence = 1.0 - ((1.0 - a_conf) + (1.0 - b_conf))
    if not confidence > 0.0:
        confidence = 0.0
    lo = a_lo - b_hi
    hi = a_hi - b_lo
    if not -_INF < lo <= hi < _INF:
        bad_endpoints(lo, hi)
    return _new(ConfidenceInterval, (lo, hi, confidence))
