"""Hot numeric kernels: concentration bound, estimator step, discovery
probability.

Operation order is part of the contract: estimates files are compared
byte for byte across reruns and split/resumed runs.  Callers reach these
functions through the module (``kernels.eta(...)``), so a profiler can
swap them at run time.
"""

import math


def backend_name():
    """Name of the kernel implementation, for benchmark provenance."""
    return "python"


def azuma_epsilon(t, log_term, sigma_sq, nu):
    """Half-width of the concentration bound after t updates at
    confidence budget delta, given ``log_term = ln(2/delta)``; delta is
    fixed per estimator, so the caller computes the log once."""
    gauss = math.sqrt(2.0 * sigma_sq / t * log_term)
    heavy = 2.0 * nu / t * log_term
    return gauss if gauss >= heavy else heavy


def estimator_step(t, e1_hat, d, d_comp, x, shift, log_term, sigma_sq, nu):
    """One update of the shift-corrected running mean.

    Returns ``(t, e1_hat, d, d_comp, e_hat, eps)``.  The current
    estimate ``e_hat`` is formed before this record's shift is folded
    into the net shift ``d``; ``d`` uses compensated summation with
    carry term ``d_comp``.  ``log_term`` is ``ln(2/delta)``.
    """
    t += 1
    e1_hat = (e1_hat * (t - 1) + (x - d)) / t
    e_hat = e1_hat + d
    y = shift - d_comp
    s = d + y
    d_comp = (s - d) - y
    d = s
    eps = azuma_epsilon(t, log_term, sigma_sq, nu)
    return t, e1_hat, d, d_comp, e_hat, eps


def eta(y, lam):
    """Expected discovered fraction of Poisson(lam)+1 incidents given y units.

    For lam > y evaluates exp(-lam) * sum_{k<y} lam^k/k! * (1 - y/(k+1))
    + (y/lam) * (1 - exp(-lam)) with a per-term recurrence so that
    lam^k and k! never appear separately.  The loop runs j = k + 1 from
    1 to y - 1 and leaves out the last summand, whose factor 1 - y/y is
    0.0: its pmf term is finite and nonnegative, so it would add +0.0,
    and a sum that starts at +0.0 is never -0.0, so adding +0.0 changes
    no bit of it.  One unit thus sums nothing and needs no exp(-lam).
    For lam <= y that form loses up to all of its precision to
    cancellation (the two parts grow like y/lam while their sum stays in
    (0, 1]), so the complement 1 - sum_{k>=y} pmf(k; lam) * (1 - y/(k+1))
    is used instead; every summand is nonnegative and the terms decay
    geometrically because k >= y >= lam.  Once the pmf term underflows
    to 0.0 every later term is 0.0 and the result is exactly 1.0, so the
    prefix loop stops there, whatever y is.
    """
    if lam > y:
        acc = 0.0
        if y > 1:
            term = math.exp(-lam)
            for j in range(1, y):
                acc += term * (1.0 - y / j)
                term *= lam / j
        return acc + (y / lam) * -math.expm1(-lam)
    term = math.exp(-lam)
    for k in range(1, y + 1):
        term *= lam / k
        if term == 0.0:
            return 1.0
    acc = 0.0
    k = y
    while term > 1e-20 * acc or k == y:
        acc += term * (1.0 - y / (k + 1))
        term *= lam / (k + 1)
        k += 1
    return 1.0 - acc
