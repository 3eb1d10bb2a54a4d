"""Reference embedding evaluators for the differential tests.

These are the evaluators circdist used before it had one: a float screen
and a fresh-cosine interval fallback for total positivity, a float pass
with an mpmath fallback for the exponent solver's logarithms, and a complex
float pass for the norm bound's moduli.  Each builds its own cosine rows for
the plus representatives.  Last comes the interval fallback of the one
evaluator as it was before its sums became exact fixed-point integers: the
same schedule on mpmath interval objects.  Then the cosine bounds the
fixed-point sums read before they came from one recurrence per level: one
mpmath interval cosine per residue.  They are kept here only as oracles.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isfinite, log

from circdist.cyclotomic import PrecisionError, act, tau
from circdist.distributions import SolveError


def plus_reps(n):
    """Representatives min(a, n-a) of the units mod n modulo negation."""
    if n <= 2:
        return [1]
    return sorted({min(a, n - a) for a in range(1, n) if gcd(a, n) == 1})


# -- total positivity -------------------------------------------------------


def _float_embedding_values(x):
    import numpy as np
    n = x.level
    reps = plus_reps(n)
    coeffs = np.array([c / x.den for c in x.nums])
    idx = np.arange(len(coeffs))
    vals = []
    for c in reps:
        ang = 2.0 * np.pi * ((idx * c) % n) / n
        vals.append(float(np.cos(ang) @ coeffs))
    return reps, vals, float(np.abs(coeffs).sum())


def _interval_embedding_sign(x, c, dps):
    from mpmath import iv
    n = x.level
    saved = iv.prec
    iv.dps = dps
    try:
        total = iv.mpf(0)
        for i, co in enumerate(x.coeffs):
            if co:
                t = (2 * i * c) % (2 * n)
                angle = iv.pi * t / n
                total += (iv.mpf(co.numerator) / co.denominator) * iv.cos(angle)
    finally:
        iv.prec = saved
    if total > 0:
        return 1
    if total < 0:
        return -1
    return 0


def is_totally_positive(x):
    """Float screen with bound 1e-10 (1 + sum |x_i|), then certified
    interval arithmetic at doubling precision for every embedding too close
    to zero (or for all of them when the floats overflow)."""
    n = x.level
    if x.is_zero():
        raise ZeroDivisionError("total positivity of zero is undefined")
    if act(tau(n), x) != x:
        raise ValueError("element is not fixed by conjugation")
    try:
        reps, vals, scale = _float_embedding_values(x)
        bound = 1e-10 * (1.0 + scale)
        ambiguous = [c for c, v in zip(reps, vals) if abs(v) <= bound]
        if any(v < -bound for v in vals):
            return False
    except OverflowError:
        reps = plus_reps(n)
        ambiguous = list(reps)
        vals = None
    if vals is not None and not ambiguous:
        return True
    for c in (ambiguous if vals is not None else reps):
        sign = 0
        dps = 40
        while dps <= 700:
            sign = _interval_embedding_sign(x, c, dps)
            if sign:
                break
            dps *= 2
        if sign == 0:
            raise PrecisionError("could not separate embedding %d from zero" % c)
        if sign < 0:
            return False
    return True


# -- the exponent solver's logarithms ----------------------------------------

_FLOAT_MARGIN = 2.0 ** 20


def embedding_logs(u):
    """(reps, log u at each plus representative): double precision on u / s
    (s the largest |u_i|) with rounding bound (phi + 2) 2^-52 sum |u_i / s|;
    a value not 2^20 times above it is re-evaluated in mpmath."""
    import numpy as np
    n = u.level
    reps = plus_reps(n)
    top = max(map(abs, u.nums))
    scale = Fraction(top, u.den)
    coeffs = np.array([c / top for c in u.nums])
    idx = np.arange(len(coeffs))
    lscale = log(scale.numerator) - log(scale.denominator)
    err = (len(coeffs) + 2) * 2.0 ** -52 * float(np.abs(coeffs).sum())
    logs = []
    for c in reps:
        ang = 2.0 * np.pi * ((idx * c) % n) / n
        val = float(np.cos(ang) @ coeffs)
        if val > _FLOAT_MARGIN * err:
            logs.append(log(val) + lscale)
        else:
            logs.append(_embedding_log_mp(u, c))
    return reps, logs


def _embedding_log_mp(u, c):
    from mpmath import cos, log as mlog, mp, mpf, pi as mpi
    n = u.level
    mag = sum(map(abs, u.nums))
    dps = 40
    while dps <= 640:
        with mp.workdps(dps):
            total = mpf(0)
            for i, a in enumerate(u.nums):
                if a:
                    total += a * cos(2 * mpi * ((i * c) % n) / n)
            err = (len(u.nums) + 32) * mag * mp.eps
            if total < -err:
                raise SolveError("embedding value is not positive at %d" % c)
            if total > 2 ** 53 * err:
                return float(mlog(total / u.den))
        dps *= 2
    raise SolveError("could not separate the embedding at %d from zero" % c)


# -- the norm bound's moduli ---------------------------------------------------


def log_abs_bounds(x):
    """Upper bounds on log |sigma_c(x)|: complex doubles on x / top, row by
    row, plus 2^10 times the rounding bound; the exact sum |x_i| when that
    is not finite."""
    import numpy as np
    n = x.level
    top = max(map(abs, x.nums))
    coeffs = np.array([c / top for c in x.nums])
    idx = np.arange(len(coeffs))
    err = 2.0 ** 10 * (len(coeffs) + 2) * 2.0 ** -52 * float(np.abs(coeffs).sum())
    shift = log(top) - log(x.den)
    out = []
    for c in plus_reps(n):
        val = abs(np.exp(2j * np.pi * ((idx * c) % n) / n) @ coeffs)
        bound = log(val + err) + shift
        if not isfinite(bound):
            bound = log(sum(map(abs, x.nums))) - log(x.den)
        out.append(bound)
    return np.array(out)


# -- the interval fallback on mpmath interval objects -------------------------


@lru_cache(maxsize=None)
def _cos_enclosures(n, prec):
    return {}


def interval_embedding(x, c):
    """(sign, log |sigma_c(x)|) from the interval sum of x_i cos(2 pi i c / n)
    at 128 bits, then doubling precision until it excludes 0 and is
    narrower than 2^-53 of its endpoints; PrecisionError past 4096 bits."""
    from mpmath import iv
    n = x.level
    saved = iv.prec
    prec = 128
    try:
        while prec <= 4096:
            iv.prec = prec
            cosines = _cos_enclosures(n, prec)
            total = iv.mpf(0)
            for i, a in enumerate(x.nums):
                if a:
                    r = i * c % n
                    r = min(r, n - r)
                    if r not in cosines:
                        cosines[r] = iv.cos(iv.pi * (2 * r) / n)
                    total += a * cosines[r]
            lo, hi = total.a, total.b
            if lo > 0 or hi < 0:
                near = lo if lo > 0 else -hi
                if hi - lo < 2.0 ** -53 * near:
                    # one rounding, at the end: float(log(near)) - log(den)
                    # loses ~1e-15 to cancellation when both logs are ~7
                    mag = float(iv.log(near / x.den).a)
                    return (1 if lo > 0 else -1), mag
            prec *= 2
    finally:
        iv.prec = saved
    raise PrecisionError("could not separate embedding %d from zero" % c)


# -- per-residue cosine bounds from mpmath's interval cosine -----------------


def _scaled(v, prec, ceil):
    """The floor (or the ceiling) of the mpmath raw float v times 2^prec."""
    sign, man, exp, _ = v
    man = -int(man) if sign else int(man)
    shift = exp + prec
    if shift >= 0:
        return man << shift
    return -(-man >> -shift) if ceil else man >> -shift


def cos_bound(n, r, prec):
    """Integers lo <= 2^prec cos(2 pi r / n) <= hi: mpmath's interval cosine
    of an enclosure of 2 pi r / n, at 20 guard bits, rounded outwards to
    the grid 2^-prec."""
    from mpmath.libmp import (from_int, mpf_div, mpf_mul, mpf_pi, mpi_cos,
                              round_ceiling, round_floor)
    wp = prec + 20
    angle = tuple(mpf_div(mpf_mul(mpf_pi(wp, rnd), from_int(2 * r)),
                          from_int(n), wp, rnd)
                  for rnd in (round_floor, round_ceiling))
    lo, hi = mpi_cos(angle, wp)
    return _scaled(lo, prec, False), _scaled(hi, prec, True)
