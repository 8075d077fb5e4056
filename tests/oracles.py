"""Reference implementations the tests compare the package against."""

import math

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


def oracle_record(output):
    """The estimates-file record of one MonitorOutput as a dict;
    ``json.dumps(..., separators=(",", ":"), allow_nan=False)`` of it is
    the line ``traceio.estimate_record`` writes."""
    def pair(ci):
        return None if ci is None else [ci.lo, ci.hi]

    rec = {"t": output.t, "conclusive": output.conclusive,
           "phi_lo": None, "phi_hi": None, "point": None,
           "clamped": output.clamped,
           "floor_violation": output.floor_violation,
           "group_intervals": {g: pair(ci)
                               for g, ci in output.per_group.items()}}
    if output.conclusive:
        rec["phi_lo"] = output.phi.lo
        rec["phi_hi"] = output.phi.hi
        rec["point"] = output.phi.midpoint
    return rec


def oracle_repay_mass(env, scores, theta_bank):
    """Rescan reference for ``EqOppPolicy._repay_mass``: (total
    would-repay mass, mass at or above ``theta_bank``) of ``scores``,
    summed in list order from 0.0."""
    total = above = 0.0
    for x in scores:
        r = env.rho(x)
        total += r
        if r >= theta_bank:
            above += r
    return total, above


def eta_full_prefix(y, lam):
    """``kernels.eta`` with the prefix loop of the lam <= y branch run
    all the way to y, past the point where its term underflows."""
    if lam > y:
        term = math.exp(-lam)
        acc = 0.0
        for k in range(y):
            acc += term * (1.0 - y / (k + 1))
            term *= lam / (k + 1)
        return acc + (y / lam) * -math.expm1(-lam)
    term = math.exp(-lam)
    for k in range(1, y + 1):
        term *= lam / k
    acc = 0.0
    k = y
    while term > 1e-20 * acc or k == y:
        acc += term * (1.0 - y / (k + 1))
        term *= lam / (k + 1)
        k += 1
    return 1.0 - acc
