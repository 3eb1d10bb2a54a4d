"""The one embedding evaluator against the evaluators it replaced.

`cyclotomic.is_totally_positive`, `cyclotomic.embedding_logs` and
`distributions._log_abs_bounds` all read the shared double-precision pass
with its interval fallback; `oracle_embed` keeps the separate evaluators
they had before.  Verdicts and logs must agree on random tau-fixed elements
at levels up to 120: sums y + tau(y) (often not positive), norms
y tau(y) - k, elements B w - A with w = zeta + zeta^-1 whose smallest
embedding is about 2^-bits of their coefficients (so positivity rests on
the interval fallback), and the three PAST_DOUBLE reproducers.  The moduli
must never fall below log |sigma_c(x)| taken at high precision.

`interval_embedding` sums integers at the scale 2^prec over outward-rounded
cosine bounds; `oracle_embed.interval_embedding` is the same schedule on
mpmath interval objects.  At every real embedding of the near-zero
elements, the eps powers and the PAST_DOUBLE reproducers the two must give
the same sign and logs within 2^-50, or both raise PrecisionError.

The cosine bounds come from one integer table per level and precision;
every entry must enclose the cosine, be at most 2 wide and lie within 2 of
the bound `oracle_embed.cos_bound` rounds from mpmath's interval cosine.
Each stage of the table carries an integer error bound, and each bound is
checked on its own at the working scale, where the final rounding to the
2^-prec grid cannot hide a missing term: the Machin arctangents, the root
of unity fed the far ends of a widened pi enclosure or cut off at a large
series tail, and the recurrence fed roots whose error bound is as tight as
an integer allows.  Level 10935 at 1024 bits needs every guard bit.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracle_embed as oracle
from circdist import cyclotomic as cyc, distributions as dist
from circdist.cyclotomic import (CycElt, PrecisionError, act, embedding_logs,
                                 is_totally_positive, one, tau, zeta,
                                 zeta_power)
from circdist.groupring import eps_n, grelt, group_reps
from circdist.polys import euler_phi

CASES = settings(max_examples=80, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

LEVELS = tuple(range(3, 121))
# eps_n^r draws keep to the solver's range (phi <= 48) and skip n = 2 mod 4
SOLVE_LEVELS = tuple(n for n in LEVELS if n % 4 != 2 and euler_phi(n) <= 48)
# w = zeta + zeta^-1 is irrational, so B w - A is never 0
NEAR_LEVELS = tuple(n for n in LEVELS if n not in (3, 4, 6))
PAST_DOUBLE = ((96, {1: 2, 23: 3, 29: -3}), (84, {1: 2, 37: -2, 41: -3}),
               (72, {1: 1, 7: -3, 29: 3}))


# a draw at level 48 whose log |sigma_23| = 1.13795702607268880 the oracle
# once read as 1.1379570260726872, subtracting two logs near 7 and 6
LEVEL48_LOG = CycElt(48, tuple(Fraction(c) for c in (
    "305661291551/27", "2495739656345/432", "10911722206/81", "-2505403355/36",
    "-22089583978/81", "-2505403355/36", "10911722206/81", "2495739656345/432",
    0, 0, 0, "29706925495/432", "11044791989/81", "357914765/432",
    "-10911722206/81", "-2495739656345/432")))


def _past_double(n, terms):
    return grelt(n, True, terms).act_on(eps_n(n), assume_tau_fixed=True)


@st.composite
def plain(draw, levels=LEVELS):
    n = draw(st.sampled_from(levels))
    size = draw(st.sampled_from((3, 100, 2 ** 70, 2 ** 1100)))
    phi = euler_phi(n)
    nums = draw(st.lists(st.integers(-size, size), min_size=phi, max_size=phi)
                .filter(any))
    den = draw(st.sampled_from((1, 1, 7, 36)))
    return CycElt(n, tuple(Fraction(c, den) for c in nums))


@st.composite
def sums(draw):
    y = draw(plain())
    return y + act(tau(y.level), y)


@st.composite
def norms(draw):
    y = draw(plain())
    return y * act(tau(y.level), y) - draw(st.sampled_from((0, 0, 1, 2)))


def near_zero_element(n, bits, seed, delta):
    """B w - A with A = floor(B w_min) + delta: all embeddings but the one
    at the smallest conjugate w_min are about B, that one lies in
    (0, 1) - delta, so the element is totally positive iff delta <= 0."""
    from mpmath import cos, floor, mp, pi
    big = (1 << bits) + seed
    cstar = max(group_reps(n, True))      # 2 cos(2 pi c / n) falls with c
    with mp.workdps(bits // 3 + 40):
        a = int(floor(big * 2 * cos(2 * pi * cstar / n))) + delta
    w = zeta(n) + zeta_power(n, -1)
    return w * big - a


@st.composite
def near_zero(draw):
    n = draw(st.sampled_from(NEAR_LEVELS))
    bits = draw(st.sampled_from((30, 60, 120, 200, 700)))
    seed = draw(st.integers(0, 2 ** 20))
    x = near_zero_element(n, bits, seed, draw(st.sampled_from((-1, 0, 1))))
    if draw(st.booleans()):                    # a totally positive factor
        y = draw(plain(levels=(n,)))
        x = x * (y * act(tau(n), y))
    return x


@st.composite
def eps_powers(draw):
    n = draw(st.sampled_from(SOLVE_LEVELS))
    reps = group_reps(n, True)
    terms = {draw(st.sampled_from(reps)): draw(st.integers(-3, 3)),
             draw(st.sampled_from(reps)): draw(st.integers(-3, 3)),
             1: draw(st.integers(0, 2))}
    return grelt(n, True, terms).act_on(eps_n(n), assume_tau_fixed=True)


tau_fixed = st.one_of(sums(), norms(), near_zero(), eps_powers())


@CASES
@given(tau_fixed)
@example(_past_double(*PAST_DOUBLE[0]))
@example(_past_double(*PAST_DOUBLE[1]))
@example(_past_double(*PAST_DOUBLE[2]))
@example(near_zero_element(97, 700, 5, 0))
@example(near_zero_element(97, 700, 5, 1))
@example(zeta(4) + zeta_power(4, -1))
def test_positivity_verdicts_match(x):
    if x.is_zero():              # y + tau(y) vanishes for imaginary y
        for verdict in (is_totally_positive, oracle.is_totally_positive):
            with pytest.raises(ZeroDivisionError):
                verdict(x)
        return
    assert is_totally_positive(x) == oracle.is_totally_positive(x)


@CASES
@given(st.one_of(eps_powers(), near_zero(), norms()))
@example(_past_double(*PAST_DOUBLE[0]))
@example(_past_double(*PAST_DOUBLE[1]))
@example(_past_double(*PAST_DOUBLE[2]))
@example(near_zero_element(60, 120, 3, 0))
def test_solver_logs_agree(u):
    if not oracle.is_totally_positive(u):
        assert embedding_logs(u) is None
        return
    reps, old = oracle.embedding_logs(u)
    new = embedding_logs(u)
    assert list(group_reps(u.level, True)) == reps
    assert all(abs(a - b) < 2.0 ** -20 for a, b in zip(new, old)), (new, old)


def _log_abs_embeddings(x):
    """log |sigma_c(x)| at the plus representatives, at a precision well
    past the cancellation in the sum."""
    from mpmath import cospi, log, mp, mpf, sinpi
    n = x.level
    bits = max(abs(c) for c in x.nums).bit_length()
    out = []
    with mp.workdps(bits // 3 + 60):
        cos_r = [cospi(mpf(2 * r) / n) for r in range(n)]
        sin_r = [sinpi(mpf(2 * r) / n) for r in range(n)]
        for c in group_reps(n, True):
            re = sum(a * cos_r[i * c % n] for i, a in enumerate(x.nums) if a)
            im = sum(a * sin_r[i * c % n] for i, a in enumerate(x.nums) if a)
            out.append(float(log(mp.sqrt(re * re + im * im))) - math.log(x.den))
    return out


@settings(CASES, max_examples=40)
@given(st.one_of(plain(), near_zero()))
@example(near_zero_element(97, 700, 5, 0))
def test_modulus_bounds_never_below_the_embeddings(x):
    bounds = dist._log_abs_bounds(x)
    exact = _log_abs_embeddings(x)
    assert all(b >= e for b, e in zip(bounds, exact)), (list(bounds), exact)


def test_near_zero_elements_need_the_interval_fallback():
    # the construction does what the docstring says: the double pass cannot
    # read the small embedding, and delta decides the verdict
    from circdist.cyclotomic import double_embeddings
    for delta, positive in ((-1, True), (0, True), (1, False)):
        x = near_zero_element(97, 200, 11, delta)
        _, vals, err, _ = double_embeddings(x)
        assert min(abs(v.real) for v in vals) < 2.0 ** 20 * err
        assert is_totally_positive(x) is positive
    assert is_totally_positive(one(97) * 3)


def _interval_outcome(evaluate, x, c):
    try:
        return evaluate(x, c)
    except PrecisionError:
        return None


@settings(CASES, max_examples=40)
@given(st.one_of(near_zero(), eps_powers()))
@example(_past_double(*PAST_DOUBLE[0]))
@example(_past_double(*PAST_DOUBLE[1]))
@example(_past_double(*PAST_DOUBLE[2]))
@example(near_zero_element(97, 700, 5, 1))
@example(near_zero_element(97, 4200, 5, 0))     # beyond 4096 bits at one c
@example(LEVEL48_LOG)
@example(one(88) * Fraction(265781, 331776))    # log(den) ~ 12.7, log ~ -0.22
def test_fixed_point_intervals_match_interval_objects(x):
    for c in group_reps(x.level, True):
        new = _interval_outcome(cyc.interval_embedding, x, c)
        old = _interval_outcome(oracle.interval_embedding, x, c)
        if old is None or new is None:
            assert old is None and new is None, (c, old, new)
            continue
        assert new[0] == old[0], (c, old, new)
        assert abs(new[1] - old[1]) <= 2.0 ** -50 * max(1.0, abs(old[1])), (c, old, new)


def test_beyond_4096_bits_is_a_precision_error():
    x = near_zero_element(97, 4200, 5, 0)
    with pytest.raises(PrecisionError):
        cyc.interval_embedding(x, max(group_reps(97, True)))


def test_cosine_bounds_enclose_the_cosine():
    from mpmath import cospi, mp, mpf
    for n in (3, 4, 6, 8, 12, 97, 120):
        for prec in (128, 1024):
            with mp.workprec(prec + 80):
                for r in range(n // 2 + 1):
                    lo, hi = cyc._cos_bounds(n, prec)[r]
                    scaled = cospi(mpf(2 * r) / n) * mpf(2) ** prec
                    assert lo <= scaled <= hi and hi - lo <= 2, (n, r, prec)


@pytest.mark.parametrize("levels,precs", [
    (range(2, 400), (128,)),
    ((405, 972, 1215), (128, 1024)),
])
def test_cosine_table_matches_the_interval_cosine(levels, precs):
    from mpmath import cospi, mp, mpf
    for n in levels:
        for prec in precs:
            table = cyc._cos_bounds(n, prec)
            assert len(table) == n // 2 + 1
            with mp.workprec(prec + 80):
                for r, (lo, hi) in enumerate(table):
                    scaled = cospi(mpf(2 * r) / n) * mpf(2) ** prec
                    lo_oracle, _ = oracle.cos_bound(n, r, prec)
                    assert lo <= scaled <= hi, (n, r, prec)
                    assert hi - lo <= 2 and abs(lo - lo_oracle) <= 2, (n, r, prec)


def _unit_root_error(c, s, n, w):
    from mpmath import cospi, mpf, sinpi, sqrt
    return sqrt((c - cospi(mpf(2) / n) * 2 ** w) ** 2
                + (s - sinpi(mpf(2) / n) * 2 ** w) ** 2)


def _check_cos_fixed(levels, scales):
    from mpmath import cospi, mpf
    for n in levels:
        for w in scales:
            for r, (x, d) in enumerate(cyc._cos_fixed(n, w)):
                assert abs(x - cospi(mpf(2 * r) / n) * 2 ** w) <= d, (n, w, r)


def test_machin_arctangents_are_enclosed():
    from mpmath import atan, mp, mpf
    with mp.workprec(400):
        for x in (2, 5, 239):
            for w in range(300):
                a, e = cyc._atan_inv(x, w)
                assert abs(a - atan(mpf(1) / x) * 2 ** w) <= e, (x, w)


def test_unit_root_bound_covers_every_pi_in_its_enclosure(monkeypatch):
    # pi = 16 atan(1/5) - 4 atan(1/239); moving both arctangents by 2^20
    # in opposite directions, and widening their bounds to match, moves pi
    # by 20 * 2^20 units, so the root's bound must carry pi's error
    from mpmath import mp
    exact = cyc._atan_inv
    for sign in (1, -1):
        def widened(x, w):
            a, e = exact(x, w)
            return a + ((sign if x == 5 else -sign) << 20), e + (1 << 20)
        monkeypatch.setattr(cyc, "_atan_inv", widened)
        with mp.workprec(400):
            for n in range(1, 60):
                for w in (16, 64, 200):
                    c, s, h = cyc._unit_root(n, w)
                    assert _unit_root_error(c, s, n, w) <= h, (sign, n, w)


def test_unit_root_bound_covers_the_series_tail(monkeypatch):
    # stopping the Taylor series at terms below 2^16 units leaves a tail
    # far above the rounding errors: the bound must still hold
    from mpmath import mp
    for stop in (1, 1 << 16):
        monkeypatch.setattr(cyc, "_SERIES_STOP", stop)
        with mp.workprec(400):
            for n in range(1, 60):
                for w in (24, 64, 200):
                    c, s, h = cyc._unit_root(n, w)
                    assert _unit_root_error(c, s, n, w) <= h, (stop, n, w)


def test_recurrence_bounds_hold_at_the_working_scale(monkeypatch):
    from mpmath import cospi, mp, mpf, nint, sinpi
    with mp.workprec(400):
        _check_cos_fixed(range(1, 130), (4, 8, 16, 32, 64))

        # roots within a hair of their integer error bound leave the
        # floors of the recurrence nothing to hide behind
        def tight(n, w):
            c0 = int(nint(cospi(mpf(2) / n) * 2 ** w))
            s0 = int(nint(sinpi(mpf(2) / n) * 2 ** w))
            _, c, s = max((_unit_root_error(c0 + i, s0 + j, n, w) % 1,
                           c0 + i, s0 + j)
                          for i in (-1, 0, 1) for j in (-1, 0, 1))
            return c, s, int(mp.ceil(_unit_root_error(c, s, n, w)))
        monkeypatch.setattr(cyc, "_unit_root", tight)
        _check_cos_fixed(range(1, 130), (8, 16, 32, 64))


def test_cosine_table_at_level_10935():
    # 10935 = 5 * 3^7, the depth-7 level of the (5,3) tower: n / 2 steps
    # need the n.bit_length() guard bits to keep every entry 2 wide
    from mpmath import cospi, mp, mpf
    table = cyc._cos_bounds(10935, 1024)
    assert max(hi - lo for lo, hi in table) <= 2
    with mp.workprec(1024 + 80):
        for r in (1, 2, 1000, 2734, 5466, 5467):
            lo, hi = table[r]
            assert lo <= cospi(mpf(2 * r) / 10935) * mpf(2) ** 1024 <= hi, r
