"""Reference implementations the tests compare the package against."""

import json
import math
from pathlib import Path

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


def _pair(ci):
    return None if ci is None else [ci.lo, ci.hi]


def oracle_record_v2(output):
    """The format-2 estimates record of one MonitorOutput as a dict;
    ``json.dumps(..., separators=(",", ":"), allow_nan=False)`` of it is
    the line ``traceio.estimate_record`` writes."""
    return {"t": output.t, "A": _pair(output.per_group["A"]),
            "B": _pair(output.per_group["B"]), "clamped": output.clamped,
            "floor_violation": output.floor_violation}


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


def oracle_score_step(x, y, z, c_max):
    """The lending simulator's own integer score rule, kept as a check on
    the shared change function: a repaid grant raises the applicant's
    score by 1 below ``c_max``, a defaulted grant lowers it by 1 above 0,
    and anything else leaves it."""
    if y == 1 and z == 1 and x < c_max:
        return x + 1
    if y == 1 and z == 0 and x > 0:
        return x - 1
    return x


def eta_full_prefix(y, lam):
    """``kernels.eta`` as a literal loop over every summand: the lam > y
    sum includes its last summand, which is +0.0, and the prefix loop of
    the lam <= y branch runs all the way to y, past the point where its
    term underflows."""
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


def literal_intervals(xs, shifts, delta, sigma_sq, nu):
    """Per-step ``(lo, hi)`` of one shift-corrected stream, straight
    from the README formulas rather than the running update: with net
    shift ``D_i = s_1 + ... + s_i`` (``D_0 = 0``), the estimate after
    ``t`` observations is ``mean_{i<=t}(x_i - D_{i-1}) + D_{t-1}`` and
    the half-width is ``max(sqrt(2 sigma_sq / t * ln(2/delta)),
    (2 nu / t) * ln(2/delta))``.  Sums are exact (``math.fsum``)."""
    net = [math.fsum(shifts[:i]) for i in range(len(xs))]
    log_term = math.log(2.0 / delta)
    out = []
    for t in range(1, len(xs) + 1):
        e_hat = (math.fsum(x - d for x, d in zip(xs[:t], net)) / t
                 + net[t - 1])
        eps = max(math.sqrt(2.0 * sigma_sq / t * log_term),
                  2.0 * nu / t * log_term)
        out.append((e_hat - eps, e_hat + eps))
    return out


def json_loads_records(path, start_t=1):
    """Reference for ``traceio.read_records``' record loop with
    ``json.loads`` on every line.  Returns ``(records, error)``:
    the records before the first bad line and that line's exception as
    ``(type, message)``, or None.  The metadata line is skipped.

    Each line is decoded from UTF-8 on its own, so bytes that are not
    UTF-8 are the error of the line that holds them, after the records
    before it.  Lines end at ``\r\n``, ``\r`` or ``\n``, each read as
    ``\n``, as in a file read as text."""
    records = []
    expected_t = start_t
    lines = Path(path).read_bytes().splitlines(keepends=True)
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return records, ("TraceFormatError", f"{path}:{lineno}: line is "
                                                 f"not UTF-8 text "
                                                 f"({exc.reason})")
        if lineno == 1 or not line.strip():
            continue
        line = line.replace("\r\n", "\n").replace("\r", "\n")
        try:
            rec = json.loads(line)
        except ValueError as exc:  # an int past the digit limit too
            return records, ("TraceFormatError",
                             f"{path}:{lineno}: corrupt record: {exc}")
        if not isinstance(rec, dict):
            return records, ("TraceFormatError",
                             f"{path}:{lineno}: record is not a JSON "
                             f"object")
        if rec.get("t") != expected_t or type(rec["t"]) is not int:
            return records, ("TraceFormatError",
                             f"{path}:{lineno}: expected "
                             f"t={expected_t}, got {rec.get('t')!r}")
        expected_t += 1
        records.append(rec)
    return records, None
