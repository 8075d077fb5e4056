"""Closed real intervals carrying a confidence level, plus the
difference operation the monitors need."""

import math
from collections import namedtuple

_INF = math.inf


class ConfidenceInterval(namedtuple("ConfidenceInterval",
                                    "lo hi confidence")):
    """Immutable ``(lo, hi, confidence)``; every construction is
    validated by :meth:`__post_init__`."""

    __slots__ = ()

    def __new__(cls, lo, hi, confidence):
        self = tuple.__new__(cls, (lo, hi, confidence))
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("interval endpoints must be finite")
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
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


def interval_sub(a, b):
    """Difference a - b; the error budgets add (union bound)."""
    confidence = max(0.0, 1.0 - ((1.0 - a.confidence) + (1.0 - b.confidence)))
    return ConfidenceInterval(a.lo - b.hi, a.hi - b.lo, confidence)
