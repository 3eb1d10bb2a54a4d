"""The certificate's eps side read around the exponent's most common weight,
against the term-by-term residue loop.

`distributions._residues_match` writes the weights K of d j as m N + K',
with N the sum of G_n^+ and m the most common weight, and reads eps^N as the
integer Phi_n(1) (`_eps_norm`) and each eps(z^r) as 2 - z^r - z^-r off the
powers of `polys.split_prime`; `_eps_log_sums` shifts the same way.  `oracle_verify.residues_match` and `oracle_verify.eps_log_sums`
multiply out every term.  The verdicts must agree at every split prime, and
the log sums must be the same integers, on the dense exponents c e_n of the
criterion 07 towers, on drawn dense exponents around a negative, zero or
positive weight, on an all-equal weight vector (no deviations), at n = 2
and at prime-power levels.  The residue loop must read eps O(mu) times on
c e_n, not mu^2: only the eps side reads the powers at negative indices.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_verify as oracle
from circdist import distributions as dist, polys
from circdist.cyclotomic import one
from circdist.groupring import eps_n, grelt, group_reps, idempotent_e_n

CASES = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

PRIME_POWERS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)
COMPOSITES = (6, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 33, 35, 36, 40)

# (m, p, c): the criterion 07 towers m p^k, whose exponent is c e_n
TOWERS = ((4, 3, 2), (3, 2, 1), (5, 3, 1))


def _power(n, r):
    return r.act_on(eps_n(n), assume_tau_fixed=True)


def _sides(j):
    """d and the terms of d j^+ and d j^-, as `verify_exponent_identity`
    splits them."""
    reps = group_reps(j.level, True)
    return (j.den, [(r, k) for r, k in zip(reps, j.nums) if k > 0],
            [(r, -k) for r, k in zip(reps, j.nums) if k < 0])


def _primes(n, count=2):
    p = polys.SPLIT_FROM
    for _ in range(count):
        prime = polys.split_prime(n, p)
        p = prime[0]
        yield prime


def _same_residues(u, j):
    """The verdict of `_residues_match` at each of two split primes, checked
    against the oracle; the eps log sums of both sides, against theirs."""
    n = u.level
    d, pos, neg = _sides(j)
    for side in (pos, neg):
        assert dist._eps_log_sums(n, side) == oracle.eps_log_sums(n, side)
    verdicts = []
    for prime in _primes(n):
        got = dist._residues_match(u, d, pos, neg, prime)
        assert got == oracle.residues_match(u, d, pos, neg, prime), (n, prime[0])
        verdicts.append(got)
    return verdicts


def _mode(j):
    _, pos, neg = _sides(j)
    return dist._around_mode(j.level, pos + [(a, -k) for a, k in neg])[0]


@pytest.mark.parametrize("m,p,c", TOWERS)
def test_criterion_07_exponents(m, p, c):
    modes = []
    for k in range(1, 6):
        n = m * p ** k
        u = _power(n, grelt(n, True, {1: c}))
        j = idempotent_e_n(n) * c
        modes.append(_mode(j))
        # u = eps^c = eps^(c e_n): eps^(c (1 - e_n)) is 1
        assert _same_residues(u, j) == [True, True], n
        reps = group_reps(n, True)
        _same_residues(u, j + grelt(n, True, {reps[k % len(reps)]: 1}))
        _same_residues(u * 2, j)
    # e_6 = 0; every higher level of the towers is dense
    assert all(modes[1:]), modes


@st.composite
def dense_exponents(draw, mode):
    """A level and an integral exponent whose weight is `mode` at more than
    half of the plus representatives."""
    n = draw(st.sampled_from((2,) + PRIME_POWERS + COMPOSITES))
    reps = group_reps(n, True)
    moved = draw(st.lists(st.sampled_from(reps), unique=True,
                          max_size=(len(reps) - 1) // 2))
    weights = dict.fromkeys(reps, mode)
    for r in moved:
        weights[r] += draw(st.integers(-3, 3).filter(bool))
    return n, grelt(n, True, weights)


@pytest.mark.parametrize("mode", (-2, 0, 1))
@CASES
@given(data=st.data())
def test_dense_exponents(mode, data):
    n, r = data.draw(dense_exponents(mode))
    d = data.draw(st.sampled_from((1, 2)))
    assert _mode(r * d) == mode * d
    u = _power(n, r)
    # u^d = eps^(d r): the exponent r d / d keeps the denominator d
    j = (r * d) * Fraction(1, d)
    assert _same_residues(u, j) == [True, True]
    reps = group_reps(n, True)
    bump = grelt(n, True, {reps[data.draw(st.integers(0, len(reps) - 1))]: 1})
    _same_residues(u, j + bump)
    _same_residues(u * Fraction(1, 3), j)
    _same_residues(u + one(n), j)


@pytest.mark.parametrize("n", (2, 3, 4, 7, 9, 12, 15, 16, 27, 35))
def test_all_equal_weights_have_no_deviations(n):
    reps = group_reps(n, True)
    norm = 4 if n == 2 else sum(polys.cyclotomic_polynomial(n))
    for m in (-2, 1, 3):
        j = grelt(n, True, dict.fromkeys(reps, m))
        d, pos, neg = _sides(j)
        assert dist._around_mode(n, pos + [(a, -k) for a, k in neg]) == (m, [])
        u = _power(n, j)
        # eps^N is the rational Phi_n(1) (4 at n = 2) in every embedding
        assert u == one(n) * Fraction(norm) ** m
        assert _same_residues(u, j) == [True, True]
        assert _same_residues(u * 2, j) == [False, False]
        assert dist.verify_exponent_identity(u, j)


def test_cached_norm_residue():
    # eps^N, N the sum of G_n^+, is the integer Phi_n(1): its closed form is
    # the product of eps(z^r) = 2 - z^r - z^-r over the plus representatives
    for n in list(range(2, 400)) + [10935]:
        norm = dist._eps_norm(n)
        assert norm == (4 if n == 2 else sum(polys.cyclotomic_polynomial(n))), n
        for p, powers in _primes(n, 3):
            prod = 1
            for r in group_reps(n, True):
                prod = prod * (2 - powers[r] - powers[-r]) % p
            assert norm % p == prod, (n, p)


class _Counting(tuple):
    """A table of powers that counts its reads at negative indices, which
    only the eps side makes."""

    reads = 0

    def __getitem__(self, i):
        self.reads += i < 0
        return tuple.__getitem__(self, i)


def _reads(check, u, j):
    n = u.level
    p, powers = polys.split_prime(n, polys.SPLIT_FROM)
    table = _Counting(powers)
    d, pos, neg = _sides(j)
    assert check(u, d, pos, neg, (p, table))
    return table.reads


def test_dense_exponents_read_the_eps_table_once_per_representative():
    n = 972
    mu = len(group_reps(n, True))
    j = idempotent_e_n(n) * 2
    u = _power(n, grelt(n, True, {1: 2}))
    assert _reads(dist._residues_match, u, j) <= 2 * mu
    assert _reads(oracle.residues_match, u, j) >= mu * (mu - 1)
    r = grelt(n, True, {1: 2, 5: -1, 7: 3})
    u = _power(n, r)
    assert _reads(dist._residues_match, u, r) <= _reads(oracle.residues_match, u, r)
