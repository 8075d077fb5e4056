"""Poisson sampling on top of ``random.Random``.

The method is pinned (inversion at rates up to 10, transformed
rejection above) so that a given seed reproduces the same trace across
builds.  ``skip_poisson`` advances a generator exactly as ``poisson``
would, for a draw whose count nothing reads.
"""

import math

_INVERSION_CUTOFF = 10.0
_MAX_INVERSION_STEPS = 10_000
# The inversion's term indices; past the last, k guards against a cdf
# rounding stall.
_TERMS = range(1, _MAX_INVERSION_STEPS + 1)
_exp = math.exp


def poisson(rng, lam):
    if lam <= 0:
        raise ValueError(f"rate must be positive, got {lam}")
    if lam <= _INVERSION_CUTOFF:
        # Inversion: the smallest k whose cdf, summed term by term from
        # exp(-lam), reaches u.
        u = rng.random()
        p = f = _exp(-lam)
        if u <= f:
            return 0
        for k in _TERMS:
            p *= lam / k
            f += p
            if u <= f:
                return k
        return _MAX_INVERSION_STEPS + 1
    return _poisson_ptrs(rng, lam)


def skip_poisson(rng, lam):
    """Advance ``rng`` exactly as ``poisson(rng, lam)`` would, without
    computing the count.  Inversion reads one uniform whatever count it
    returns, its stall guard included; the rejection loop reads a
    data-dependent number, so it runs in full."""
    if lam <= 0:
        raise ValueError(f"rate must be positive, got {lam}")
    if lam <= _INVERSION_CUTOFF:
        rng.random()
    else:
        _poisson_ptrs(rng, lam)


def _poisson_ptrs(rng, lam):
    # Hormann's transformed rejection with squeeze (PTRS).
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
                <= k * loglam - lam - math.lgamma(k + 1.0)):
            return int(k)
