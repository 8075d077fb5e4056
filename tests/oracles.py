"""Reference implementations the tests compare the package against."""

from fairmon import ConfidenceInterval


def check_parameter_floor(lambda_min, shifts):
    """True iff a rate started at lambda_min stays strictly positive at
    every prefix of the per-step shift sequence ``shifts``."""
    if lambda_min <= 0:
        raise ValueError(f"rate floor must be positive, got {lambda_min}")
    running = 0.0
    for shift in shifts:
        running += shift
        if lambda_min + running <= 0.0:
            return False
    return True


def interval_map_decreasing(f, ci):
    """Image of ``ci`` under a strictly decreasing function ``f``."""
    return ConfidenceInterval(f(ci.hi), f(ci.lo), ci.confidence)
