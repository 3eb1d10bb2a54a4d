"""Reference exponent solver for the differential tests.

This is `distributions.solve_exponent` as it was before everything after
the float solve became integer arithmetic, kept here only as an oracle.
Candidates are rebuilt through `Fraction.limit_denominator`, one Fraction
per coordinate per bound; an accepted candidate j is certified, then j e_n
is certified again whenever it differs from j; the unit precondition runs
before the candidates and reads the norm as a resultant under the l1 bound
(`oracle_arith.cyclo_norm`); and the representative comes from the
Fraction coset reduction (`oracle_arith.coset_reduce`).
"""

from fractions import Fraction

import oracle_arith
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
