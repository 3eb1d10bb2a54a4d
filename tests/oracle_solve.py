"""Reference exponent solver for the differential tests.

This is `distributions.solve_exponent` as it was before everything after
the float solve became integer arithmetic, kept here only as an oracle.
Candidates are rebuilt through `Fraction.limit_denominator`, one Fraction
per coordinate per bound; an accepted candidate j is certified, then j e_n
is certified again whenever it differs from j; the unit precondition runs
before the candidates and reads the norm as a resultant under the l1 bound
(`oracle_arith.cyclo_norm`); and the representative comes from the
Fraction coset reduction (`oracle_arith.coset_reduce`).

`fixed_point_solve` is `distributions._character_solve` as it was before
the solve stayed in the character basis: the pseudo-inverse m_n is
transformed back, read at the inverses and rounded to 62-bit fixed point,
and each solve is one integer group-ring product (`groupring._product`) of
it with the fixed-point logs.
"""

from fractions import Fraction
from functools import lru_cache
from math import frexp, ldexp

import oracle_arith
import oracle_groupring
from circdist import cyclotomic, groupring, polys
from circdist.distributions import _log_eps, verify_exponent_identity
from circdist.groupring import annihilator_In_formula, group_reps, idempotent_e_n


def float_solution(u):
    """The least-squares solution of the logarithmic system for u."""
    import numpy as np
    n = u.level
    reps = np.array(group_reps(n, True))
    a_mat = np.asarray(_log_eps(n))[np.outer(reps, reps) % n]
    return np.linalg.lstsq(a_mat, np.array(cyclotomic.embedding_logs(u)), rcond=None)[0]


def candidates(x, n, max_denominator=4096):
    """The distinct candidates of the doubling denominator schedule, in the
    order they are tried."""
    seen = set()
    bound = 1
    while bound <= max_denominator:
        cand = tuple(Fraction(v).limit_denominator(bound) for v in x)
        bound *= 2
        if cand not in seen:
            seen.add(cand)
            yield groupring.from_vector(n, True, list(cand))


def integral_coset_representative(j, lattice, p=None):
    rep = oracle_arith.coset_reduce([list(r) for r in lattice.hnf], j.to_vector())
    for c in rep:
        if p is None and c.denominator != 1:
            return None
        if p is not None and c.denominator % p == 0:
            return None
    return groupring.from_vector(j.level, True, rep)


def _is_unit(u, p):
    # a unit, or a p-unit when p is given
    nrm = abs(oracle_arith.cyclo_norm(list(u.coeffs), u.level, None))
    if p is None:
        return nrm == 1
    val = nrm.numerator
    while val > 1 and val % p == 0:
        val //= p
    return nrm.denominator == 1 and val == 1


def solve_exponent(u, max_denominator=4096, unit_check_bound=32):
    n = u.level
    if n < 2:
        raise cyclotomic.LevelError("level must be >= 2")
    if u.is_zero():
        raise ValueError("cannot solve for the zero element")
    if cyclotomic.act(cyclotomic.tau(n), u) != u:
        raise ValueError("element is not fixed by conjugation")
    if cyclotomic.embedding_logs(u) is None:
        raise ValueError("element is not totally positive")
    if u.is_integral() and polys.euler_phi(n) <= unit_check_bound:
        ps = polys.prime_factors(n)
        if not _is_unit(u, ps[0] if len(ps) == 1 else None):
            raise ValueError("element is not a unit (resp. p-unit) at level %d" % n)
    e_n = idempotent_e_n(n)
    for j in candidates(float_solution(u), n, max_denominator):
        if verify_exponent_identity(u, j):
            je = j * e_n
            if je != j and verify_exponent_identity(u, je):
                j = je
            integral = integral_coset_representative(j, annihilator_In_formula(n))
            return integral if integral is not None else j
    return None


def _fixed(vals):
    """(ints, shift): each double times 2^shift, rounded to an integer, the
    largest in size below 2^62."""
    shift = 62 - frexp(max(map(abs, vals)))[1]
    return [round(ldexp(v, shift)) for v in vals], shift


@lru_cache(maxsize=None)
def _fixed_pseudo_inverse(n):
    """(terms, shift): 2^shift m'_n as (Kronecker index, int) terms in
    Z[G_n^+], with m'(g) = m_n(g^-1) and m_n the inverse transform of 1 / L^
    on the characters where e_n^ is 1 and of 0 elsewhere."""
    _, walk, conj = oracle_groupring.character_frame(n)
    at = groupring._unit_positions(n, True)
    leps = _log_eps(n)
    e_n = idempotent_e_n(n)
    sums = groupring.character_sums(
        n, [complex(leps[g], e_n.nums[at[g]] / e_n.den) for g in walk])
    inv = [2 / (a + b) if round((a - b).imag / 2) == 1 else 0j
           for a, b in zip(sums, (sums[c].conjugate() for c in conj))]
    m = groupring.character_sums(n, inv, 1)
    m_inv = [0.0] * len(walk)
    for g, c in zip(walk, conj):
        m_inv[at[g]] = m[c].real / len(walk)
    ints, shift = _fixed(m_inv)
    return [t for t in zip(groupring._coordinates(n, True)[1], ints) if t[1]], shift


def fixed_point_solve(n, logs):
    """m'_n times the logs b read at the inverses, sum b_i sigma_(r_i^-1),
    as one fixed-point product in Z[G_n^+], scaled back to doubles."""
    terms, shift = _fixed_pseudo_inverse(n)
    ints, bshift = _fixed(logs)
    prod = groupring._product(n, True, terms,
                              [t for t in zip(oracle_groupring.inverse_keys(n), ints) if t[1]])
    return [ldexp(v, -shift - bshift) for v in prod]
