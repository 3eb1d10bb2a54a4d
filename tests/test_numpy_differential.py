"""The numpy-free solver pieces against the numpy code they replaced.

`distributions._character_solve` divides by the log-eps element in the
character basis of G_n, `cyclotomic.double_embeddings` sums the nonzero
coefficients against one table of powers of zeta, and the certificate
reads residues at split primes over the nonzero terms of u with the eps
side once per plus representative, and bounds the norm by integer sums.
`oracle_numpy` keeps the numpy code: `lstsq` on the mu x mu matrix, the
whole mu x phi table of zeta^(i c), int64 residue arrays and float gathers
of the log table.  The residue verdicts and the norm bounds are compared on
every call that `test_verify_differential.py` makes, by a fixture there.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import oracle_numpy as oracle
from circdist import cyclotomic, distributions as dist, polys
from circdist.cyclotomic import CycElt
from circdist.distributions import (RTower, divisor_closure, phi_table,
                                    power_by_tower)
from circdist.groupring import eps_n, grelt, group_reps

SOLVE_LEVELS = range(3, 500)

# lstsq's default cut-off keeps a singular value of about 2e-15 at these
# levels (largest 12-16), so the old solve gave vectors off by up to 1e13
# there; j e_n removed the error, and the exponents came out right
LSTSQ_MISSES = (106, 124, 186)


def _logs(n, rng):
    return [rng.gauss(0.0, 3.0) for _ in group_reps(n, True)]


@pytest.mark.parametrize("n", SOLVE_LEVELS)
def test_character_solve_matches_lstsq(n):
    # random right-hand sides are mostly outside the range of the matrix,
    # so this compares the least-squares solutions of least norm; a
    # relative cut-off of 1e-10 drops the singular values at rounding level
    rng = random.Random(n)
    u = grelt(n, True, {1: 2, group_reps(n, True)[-1]: -1}).act_on(
        eps_n(n), assume_tau_fixed=True)
    for logs in (_logs(n, rng), cyclotomic.embedding_logs(u)):
        got = dist._character_solve(n, logs)
        if n == 6:
            # eps_6 = 1: the matrix is 0, its double rounding noise
            assert got == [0.0]
            continue
        ref = oracle.lstsq_solve(n, logs, rcond=1e-10)
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-9, n
        if n not in LSTSQ_MISSES:
            ref = oracle.lstsq_solve(n, logs)
            assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-9, n


def test_lstsq_misses_the_null_space_at_three_levels():
    for n in LSTSQ_MISSES:
        logs = _logs(n, random.Random(n))
        ref = oracle.lstsq_solve(n, logs)
        got = dist._character_solve(n, logs)
        assert max(abs(a - b) for a, b in zip(got, ref)) > 1e6, n


@pytest.mark.parametrize("n", SOLVE_LEVELS)
def test_kept_characters_are_the_nonzero_eigenvalues(n):
    # the mask comes from e_n, the eigenvalues from the log table: every
    # kept character has an eigenvalue far from zero, every other one an
    # eigenvalue at rounding level, and their number is the rank of the
    # mu x mu matrix
    kept = [v != 0 for v in dist._pseudo_inverse(n)[0]]
    eig = np.abs(oracle.group_matrix_eigenvalues(n))
    assert all((v > 1e-8) == k for v, k in zip(eig, kept)), n
    if n != 6:
        assert sum(kept) == np.linalg.matrix_rank(oracle.group_matrix(n)), n


def _tower_value(m, p, depth):
    table = power_by_tower(power_by_tower(
        phi_table(divisor_closure([m * p ** depth]), verify=False),
        RTower.preset("one_plus_tau"), verify=False), RTower.scalar(2), verify=False)
    return table.value(m * p ** depth)


def _random_element(n, rng, density, size):
    nums = [rng.randint(-size, size) if rng.random() < density else 0
            for _ in range(polys.euler_phi(n))]
    nums[0] = nums[0] or 1
    return CycElt(n, tuple(Fraction(c, rng.choice((1, 7))) for c in nums))


def _embedding_cases():
    rng = random.Random(5)
    for n in (3, 4, 5, 12, 60, 97, 120, 405, 972, 1155, 1215, 3645):
        for density, size in ((0.02, 3), (0.3, 2 ** 40), (1.0, 100)):
            yield _random_element(n, rng, density, size)
    yield _tower_value(5, 3, 5)         # level 1215, sparse
    yield _tower_value(5, 3, 6)         # level 3645


@pytest.mark.parametrize("x", list(_embedding_cases()),
                         ids=lambda x: "level%d" % x.level)
def test_sparse_embeddings_match_the_table(x):
    reps, vals, err, shift = cyclotomic.double_embeddings(x)
    ref_reps, ref_vals, ref_err, ref_shift = oracle.double_embeddings(x)
    assert list(reps) == list(ref_reps) and shift == ref_shift
    assert abs(err - ref_err) <= 2.0 ** -40 * ref_err
    # each is within err of the exact sum, up to a few units of 2^-52 per
    # table entry
    slack = 2 * err + 2.0 ** -48 * len(x.nums)
    assert max(abs(a - b) for a, b in zip(vals, ref_vals)) <= slack


@pytest.mark.parametrize("n", [7, 15, 16, 21])
def test_residues_read_both_units_of_a_plus_class(n):
    # y = prod (x - z^c) over the plus representatives c vanishes at z^c
    # but not at z^-c, so u = eps^r + y matches eps^r at every plus
    # representative and at no other unit: only u's own check at -c,
    # which a tau-fixed u may skip, tells them apart
    prime = polys.split_prime(n, polys.SPLIT_FROM)
    p, powers = prime
    y = [1]
    for c in group_reps(n, True):
        y = [(a - powers[c] * b) % p for a, b in zip([0] + y, y + [0])]
    y += [0] * (polys.euler_phi(n) - len(y))
    r = grelt(n, True, {1: 2, group_reps(n, True)[-1]: -1})
    pos, neg = [(1, 2)], [(group_reps(n, True)[-1], 1)]
    eps_r = r.act_on(eps_n(n), assume_tau_fixed=True)
    u = eps_r + CycElt(n, tuple(Fraction(c) for c in y))
    for x, expected in ((eps_r, True), (u, False)):
        assert dist._residues_match(x, 1, pos, neg, prime) is expected
        assert oracle.residues_match(x, 1, pos, neg, prime) is expected
