"""Closed real intervals carrying a confidence level, plus the
difference operation the monitors need."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    confidence: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")
        # A union-bound combination may exhaust the budget, hence lo of 0.
        if not 0.0 <= self.confidence < 1.0:
            raise ValueError(f"invalid confidence {self.confidence}")

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
