"""Discovery probability of Poisson-distributed incidents.

With incident count X+1, X ~ Poisson(lam), and y attention units, the
expected discovered fraction E[min(X+1, y) / (X+1)] has the closed form
evaluated by :func:`eta`.  It is strictly decreasing in lam, which lets
a rate interval be mapped endpoint-wise onto a discovery-probability
interval.
"""

import math

from . import kernels
from .errors import ConfigError
from .estimator import _FLOAT_MAX, SubExpParams, is_real
from .intervals import trusted_interval

# The series is evaluated with exp(-lam) folded into every term; beyond
# this the leading factor underflows.  Monitor-scale rates are far below.
MAX_RATE = 700.0


def _check_units(y):
    """Attention units as an int: an integral real (not a bool, nan or
    inf) of at least 1.  An in-range int, such as the units a monitor's
    ``update`` has typed, is returned as it is."""
    if type(y) is int and 1 <= y <= _FLOAT_MAX:
        return y
    if not (is_real(y) and y >= 1 and y == int(y)):
        raise ConfigError(
            f"attention units must be a positive integer, got {y}")
    return int(y)


def eta(y, lam):
    """Closed-form discovery probability for y >= 1 units at rate lam > 0."""
    y = _check_units(y)
    if not 0.0 < lam <= MAX_RATE:
        raise ConfigError(f"rate must be in (0, {MAX_RATE}], got {lam}")
    return kernels.eta(y, float(lam))


def eta_interval(y, lambda_ci):
    """Map a rate interval onto a discovery-probability interval.

    Valid because eta(y, .) is strictly decreasing: the upper rate gives
    the lower probability and vice versa.  The checks are those of
    :func:`eta` at both endpoints, made once: ``0 < lo <= hi`` holds for
    a valid interval once ``lo > 0``.
    """
    lo, hi, confidence = lambda_ci
    if lo <= 0.0:
        raise ConfigError(f"rate interval touches zero: lo={lo}")
    y = _check_units(y)
    if hi > MAX_RATE:
        raise ConfigError(f"rate must be in (0, {MAX_RATE}], got {hi}")
    return trusted_interval(kernels.eta(y, float(hi)),
                            kernels.eta(y, float(lo)), confidence)


def poisson_subexp_params(lambda_max):
    """Tail parameters of a centered Poisson variable with rate at most
    lambda_max: (2*lambda_max, 2)."""
    if lambda_max <= 0:
        raise ConfigError(f"rate bound must be positive, got {lambda_max}")
    return SubExpParams(2.0 * lambda_max, 2.0)
