"""The split-prime certificate against the exact product check.

`verify_exponent_identity` decides u = eps_n^j from residues at split primes
and a norm bound; `oracle_verify` decides it by the exact field product.
Their verdicts must agree on every input: the criterion 06 and 07 grids,
corrupted exponents, prime-power levels (where eps_n is not a unit),
non-integral u and the sign-torsion case u = -eps^r.  The norm bound is only
sound if the embedding bounds never underestimate, which is checked against
exact norms.

Every residue verdict is also compared with the numpy residue check the
certificate had before (`oracle_numpy`), and every norm bound, now an
integer in units of 2^-48, with the float bound on the same moduli of u, by
an autouse fixture.  The integer bound must hold for A - B formed in the
field, each table entry and each log p it reads must bound the log taken
at 60 digits from the right side, and it takes one group-ring product per
side.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracle_numpy
import oracle_verify as oracle
from circdist import distributions as dist, groupring, polys
from circdist.cyclotomic import CycElt, norm_to_q, one
from circdist.distributions import (RTower, divisor_closure, phi_table,
                                    power_by_tower, solve_exponent,
                                    verify_exponent_identity)
from circdist.groupring import (annihilator_In_formula, eps_n, grelt,
                                group_reps)

CASES = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

PRIME_POWERS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)
COMPOSITES = (6, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 33, 35, 36, 40)


@pytest.fixture(autouse=True)
def same_as_numpy(monkeypatch):
    match, bound = dist._residues_match, dist._norm_bound

    def checked_match(u, d, pos, neg, prime):
        got = match(u, d, pos, neg, prime)
        assert got == oracle_numpy.residues_match(u, d, pos, neg, prime)
        return got

    def checked_bound(u, d, pos, neg):
        got = bound(u, d, pos, neg)
        # the moduli of u are compared with the table's on their own
        # (test_numpy_differential.py); here both read the same ones.  The
        # integer bound, in units of 2^-48, may fall below the float one by
        # at most the float one's own 2^-24 slack
        ref = oracle_numpy.norm_bound(u, d, pos, neg, dist._log_abs_bounds)
        tight = oracle_numpy.norm_bound(u, d, pos, neg, dist._log_abs_bounds, slack=0.0)
        assert tight <= got / 2 ** 48 <= ref + 1e-9 * (1 + abs(ref)), (got, tight, ref)
        return got

    monkeypatch.setattr(dist, "_residues_match", checked_match)
    monkeypatch.setattr(dist, "_norm_bound", checked_bound)


def _same_verdict(u, j):
    got = verify_exponent_identity(u, j)
    assert got == oracle.verify_exponent_identity(u, j), (u.level, j)
    return got


@st.composite
def exponents(draw, levels, lo=-3, hi=3):
    """A level and an integral exponent of the criterion 06 shape."""
    n = draw(st.sampled_from(levels))
    reps = group_reps(n, True)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from(reps))
        terms[r] = terms.get(r, 0) + draw(st.integers(lo, hi))
    return n, grelt(n, True, terms)


def _power(n, r):
    return r.act_on(eps_n(n), assume_tau_fixed=True)


@CASES
@given(exponents(range(3, 37)), st.integers(0, 10 ** 6))
def test_criterion_06_grid_and_corruptions(case, salt):
    n, r = case
    u = _power(n, r)
    assert _same_verdict(u, r)
    reps = group_reps(n, True)
    bump = grelt(n, True, {reps[salt % len(reps)]: (-1) ** salt * (1 + salt % 2)})
    corrupted = _same_verdict(u, r + bump)
    assert corrupted == annihilator_In_formula(n).contains(bump)
    _same_verdict(u, r * Fraction(1, 2))


@CASES
@given(exponents(PRIME_POWERS), st.sampled_from((1, 2, 3)))
def test_prime_power_levels_where_eps_is_not_a_unit(case, d):
    # eps_n has norm l^2 at n = l^k: |N(B)| > 1 and u may be non-integral
    n, r = case
    u = _power(n, r)
    assert _same_verdict(u, r)
    assert not _same_verdict(u, r + grelt(n, True, {1: 1}))
    assert _same_verdict(u ** d, r * d)
    assert not _same_verdict(u * Fraction(1, 2), r)


def test_large_denominators_take_several_primes(monkeypatch):
    # u = eps_25^(-40 + 3 sigma_2) has a 10-bit denominator, and phi(25) log P
    # clears the norm bound only after several split primes
    used = []
    match = dist._residues_match
    monkeypatch.setattr(dist, "_residues_match",
                        lambda *args: used.append(args[-1][0]) or match(*args))
    r = grelt(25, True, {1: -40, 2: 3})
    u = _power(25, r)
    assert _same_verdict(u, r)
    assert len(used) > 2 and len(set(used)) == len(used)
    del used[:]
    assert not _same_verdict(u, r + grelt(25, True, {1: Fraction(1, 5)}))
    assert len(used) == 1


@pytest.mark.parametrize("n,collisions", [(7, 1), (12, 1), (15, 2), (16, 1), (35, 3)])
def test_residue_collisions_need_the_norm_bound(n, collisions):
    # u = eps^r + P, P the product of the first split primes, matches eps^r
    # at each of them; only the norm bound can send the check to a prime
    # where the two differ
    p, product = polys.SPLIT_FROM, 1
    for _ in range(collisions):
        p = polys.split_prime(n, p)[0]
        product *= p
    r = grelt(n, True, {1: 2, group_reps(n, True)[-1]: -1})
    u = _power(n, r) + one(n) * product
    assert not _same_verdict(u, r)


@CASES
@given(exponents(PRIME_POWERS + COMPOSITES), st.integers(2, 6))
def test_non_integral_elements(case, den):
    n, r = case
    u = _power(n, r) * Fraction(1, den)
    assert not _same_verdict(u, r)
    v = _power(n, -r)                  # non-integral at prime-power levels
    assert _same_verdict(v, -r)
    bump = grelt(n, True, {group_reps(n, True)[-1]: 2})
    assert _same_verdict(v, -r + bump) == annihilator_In_formula(n).contains(bump)


@pytest.mark.parametrize("n", [12, 15, 21, 35, 40])
def test_sign_torsion(n):
    # (-eps^r)^2 = eps^(2r + x) for x in I_n, so j = r + x/2 is accepted
    r = grelt(n, True, {1: 2, group_reps(n, True)[-1]: -1})
    u = -_power(n, r)
    x = annihilator_In_formula(n).basis_elements()[0]
    assert _same_verdict(u, r + x * Fraction(1, 2))
    assert not _same_verdict(u, r)


CRITERION_07 = [(4, 3, RTower.scalar(2)), (3, 2, RTower.scalar(1)),
                (5, 3, RTower.combo(5, [(1, 1), (1, 2)]))]


@pytest.mark.parametrize("m,p,tower", CRITERION_07)
def test_criterion_07_towers(m, p, tower):
    depth = 4 if p == 3 else 5
    support = divisor_closure([m * p ** depth])
    table = power_by_tower(power_by_tower(phi_table(support, verify=False),
                                          RTower.preset("one_plus_tau"), verify=False),
                           tower, verify=False)
    for k in range(1, depth + 1):
        n = m * p ** k
        u = table.value(n)
        j = solve_exponent(u)
        assert _same_verdict(u, j)
        reps = group_reps(n, True)
        bump = grelt(n, True, {reps[k % len(reps)]: 1})
        assert _same_verdict(u, j + bump) == annihilator_In_formula(n).contains(bump)
        assert not _same_verdict(u * 2, j)


@st.composite
def elements(draw):
    n = draw(st.sampled_from(PRIME_POWERS + COMPOSITES + (2, 60)))
    size = draw(st.sampled_from((3, 100, 2 ** 70)))
    phi = len(one(n).nums)
    nums = draw(st.lists(st.integers(-size, size), min_size=phi, max_size=phi)
                .filter(any))
    den = draw(st.sampled_from((1, 1, 2, 7, 36)))
    return CycElt(n, tuple(Fraction(c, den) for c in nums))


@settings(max_examples=200, deadline=None)
@given(elements())
def test_embedding_bounds_only_overestimate(x):
    n = x.level
    reps = group_reps(n, True)
    bounds = dist._log_abs_bounds(x)
    total = sum(b * (1 if 2 * c % n == 0 else 2) for c, b in zip(reps, bounds))
    nrm = abs(norm_to_q(x))
    assert nrm != 0
    assert total >= math.log(nrm.numerator) - math.log(nrm.denominator)


def _sides(j):
    """The terms (r, k) of d j^+ and d j^-, as `verify_exponent_identity`
    splits them."""
    reps = group_reps(j.level, True)
    return ([(r, k) for r, k in zip(reps, j.nums) if k > 0],
            [(r, -k) for r, k in zip(reps, j.nums) if k < 0])


@st.composite
def near_identities(draw):
    """(u, j) at a level up to 40: u is a small element, alone or added to
    eps^r, over a small denominator, and j = r / den."""
    n, r = draw(exponents(range(3, 41), -2, 2))
    phi = len(one(n).nums)
    small = draw(st.lists(st.integers(-2, 2), min_size=phi, max_size=phi).filter(any))
    u = CycElt(n, tuple(map(Fraction, small)))
    if draw(st.booleans()):
        u = u + _power(n, r)
    u = u * Fraction(1, draw(st.sampled_from((1, 2, 7))))
    return u, r * Fraction(1, draw(st.sampled_from((1, 2, 3))))


@settings(CASES, max_examples=40)
@given(near_identities())
def test_norm_bound_holds_for_the_difference(case):
    # |N(A - B)| <= prod_c (|sigma_c A| + |sigma_c B|) <= e^(bound / 2^48)
    u, j = case
    assume(not u.is_zero())
    pos, neg = _sides(j)
    d = j.den
    U = u * u.den
    a = U ** d * grelt(u.level, True, dict(neg)).act_on(eps_n(u.level), assume_tau_fixed=True)
    b = one(u.level) * u.den ** d * grelt(u.level, True, dict(pos)).act_on(
        eps_n(u.level), assume_tau_fixed=True)
    assume(a != b)
    nrm = abs(norm_to_q(a - b))
    assert nrm.denominator == 1
    bound = dist._norm_bound(u, d, pos, neg)
    assert isinstance(bound, int)
    assert bound >= 2 ** 48 * math.log(nrm.numerator)


def test_log_units_bound_the_logs_from_the_right_side():
    from mpmath import log, mp, mpf, pi, sin
    with mp.workdps(60):
        scale = mpf(2) ** 48
        for n in range(2, 200):
            for (_, got), r in zip(dist._log_eps_ceilings(n), group_reps(n, True)):
                assert got >= scale * 2 * log(2 * sin(pi * r / n)), (n, r)
            p = polys.SPLIT_FROM
            for _ in range(3):
                p = polys.split_prime(n, p)[0]
                # the stop rule's lower bound on log p
                assert dist._log_units(math.log(p), math.log(p), False) <= scale * log(p), p


def test_norm_bound_takes_one_product_per_side(monkeypatch):
    calls = []
    product = groupring._product
    monkeypatch.setattr(groupring, "_product",
                        lambda *args: calls.append(args[0]) or product(*args))
    for n in (7, 15, 36):
        r = grelt(n, True, {1: 2, group_reps(n, True)[-1]: -1})
        pos, neg = _sides(r)
        del calls[:]
        dist._norm_bound(_power(n, r) * 3, 1, pos, neg)
        assert calls == [n, n]
