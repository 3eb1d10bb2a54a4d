"""The integer tail of `solve_exponent` against the solver it replaced.

After its float solve, `distributions.solve_exponent` rounds each
coordinate by an integer port of `Fraction.limit_denominator`, certifies
each candidate once as j e_n, reduces it modulo I_n by integer forward
elimination (`intlinalg.coset_reduce`), and its unit precondition reads the
norm at split primes (`polys.cyclo_norm`).  `oracle_solve` keeps the solver
as it was: Fractions, two certificates per accepted candidate, a triangular
Fraction solve and a resultant norm.  Both must return equal exponents, and
equal p-integral representatives, on the criterion 06 and 07 grids, on the
seed-1 draws of the `solve_small` benchmark at phi(n) <= 24 and on the
three solves past double precision; each replaced piece is also compared
with its old form on its own.
"""

import importlib.util
import inspect
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracle_arith
import oracle_solve
from oracle_arith import gauss_solve
from circdist import coleman, intlinalg, polys
from circdist import distributions as dist
from circdist.cyclotomic import CycElt
from circdist.distributions import (RTower, divisor_closure, phi_table,
                                    power_by_tower, solve_exponent)
from circdist.groupring import (annihilator_In_formula, eps_n, grelt,
                                group_reps, idempotent_e_n)
from test_distributions import PAST_DOUBLE

CASES = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _same_solution(u):
    got = solve_exponent(u)
    assert got == oracle_solve.solve_exponent(u), u.level
    return got


def _power(n, terms):
    return grelt(n, True, terms).act_on(eps_n(n), assume_tau_fixed=True)


def test_criterion_06_grid():
    # the draws of the criterion 06 acceptance test
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.choice(range(3, 37))
        reps = group_reps(n, True)
        u = _power(n, {rng.choice(reps): rng.randint(-3, 3),
                       rng.choice(reps): rng.randint(-3, 3),
                       1: rng.randint(0, 2)})
        assert _same_solution(u) is not None


@pytest.mark.parametrize("m,p,tower", [(4, 3, RTower.scalar(2)),
                                       (3, 2, RTower.scalar(1)),
                                       (5, 3, RTower.combo(5, [(1, 1), (1, 2)]))])
def test_criterion_07_towers(m, p, tower):
    support = divisor_closure([m * p ** 5])
    table = power_by_tower(power_by_tower(phi_table(support, verify=False),
                                          RTower.preset("one_plus_tau"), verify=False),
                           tower, verify=False)
    for k in range(1, 6):
        n = m * p ** k
        u = table.value(n)
        j = _same_solution(u)
        ref = oracle_solve.integral_coset_representative(j, annihilator_In_formula(n), p)
        assert ref is not None
        assert coleman.p_integral_exponent(u, p) == ref, n


def _solve_small_draws(seed):
    # the u of every solve op of the benchmark's solve_small workload
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads._solve_ops(seed, False, {})
    return [inspect.getclosurevars(op.run).nonlocals["u"]
            for op in ops if op.label.startswith("solve ")]


def test_solve_small_draws():
    draws = [u for u in _solve_small_draws(1) if polys.euler_phi(u.level) <= 24]
    assert len(draws) > 60
    for u in draws:
        assert _same_solution(u) is not None


@pytest.mark.parametrize("n,terms", PAST_DOUBLE)
def test_past_double_precision(n, terms):
    assert _same_solution(_power(n, terms)) is not None


@pytest.mark.parametrize("terms,tries", [({1: 1}, 1), ({1: 2, 2: 1}, 2)])
def test_one_certificate_per_candidate(terms, tries, monkeypatch):
    # at a composite level each candidate j is certified once, as j e_n,
    # and the accepted one is not certified again
    n = 21
    u = _power(n, terms)
    e_n = idempotent_e_n(n)
    calls = []
    verify = dist.verify_exponent_identity
    monkeypatch.setattr(dist, "verify_exponent_identity",
                        lambda u, j: calls.append(j) or verify(u, j))
    assert solve_exponent(u) is not None
    tried = []
    for j in oracle_solve.candidates(oracle_solve.float_solution(u), n):
        tried.append(j)
        if verify(u, j):
            break
    assert len(tried) == tries
    if tries == 1:
        # certifying the accepted j and then j e_n would take two calls
        assert tried[-1] * e_n != tried[-1]
    assert calls == [j * e_n for j in tried]


@CASES
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 4096))
@example(0.5, 1)
@example(-0.5, 1)
@example(2.5, 2)
@example(1 / 3, 3)
@example(-1e300, 4096)
@example(5e-324, 1)
def test_limit_denominator_matches_fractions(v, bound):
    ref = Fraction(v).limit_denominator(bound)
    num, den = v.as_integer_ratio()
    assert dist._limit_denominator(num, den, bound) == (ref.numerator, ref.denominator)


@st.composite
def saturated_cosets(draw):
    mu = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=mu, max_size=mu),
                         max_size=mu))
    basis = intlinalg.saturate(rows, mu)
    nums = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=mu, max_size=mu))
    den = draw(st.sampled_from((1, 2, 3, 6, 35, 1024, 3 ** 7)))
    return basis, nums, den


@CASES
@given(saturated_cosets())
def test_coset_reduce_matches_the_fraction_solve(case):
    basis, nums, den = case
    rep_nums, rep_den = intlinalg.coset_reduce(basis, nums, den)
    assert rep_den > 0 and gcd(rep_den, *rep_nums) == 1
    rep = [Fraction(c, rep_den) for c in rep_nums]
    vec = [Fraction(c, den) for c in nums]
    try:
        assert rep == oracle_arith.coset_reduce(basis, vec)
    except ArithmeticError:
        # the triangular solve reads only the diagonal of the pivot block,
        # so it fails wherever a row has an entry above a later pivot (no
        # I_n lattice has one); check the representative directly
        assert any(row[p] for i, row in enumerate(basis)
                   for p in map(_pivot, basis[i + 1:]))
        assert not any(rep[_pivot(row)] for row in basis)
        diff = [v - r for v, r in zip(vec, rep)]
        assert gauss_solve(intlinalg.transpose(basis, len(vec)), diff) is not None


def _pivot(row):
    return next(k for k, a in enumerate(row) if a)


def test_i_n_lattices_have_no_entries_above_later_pivots():
    # so the Fraction reduction's failure above never arose on an I_n
    for n in range(3, 200):
        rows = annihilator_In_formula(n).hnf
        assert not any(row[p] for i, row in enumerate(rows)
                       for p in map(_pivot, rows[i + 1:])), n


def test_coset_reduce_checks_the_pivot_columns():
    # rows out of pivot order leave a pivot entry standing
    with pytest.raises(ArithmeticError, match="pivot columns"):
        intlinalg.coset_reduce([[0, 1], [1, 1]], [1, 1])


@st.composite
def annihilator_cosets(draw):
    n = draw(st.sampled_from((12, 15, 20, 21, 24, 28, 35, 36, 40, 45, 60, 63)))
    reps = group_reps(n, True)
    dens = st.sampled_from((1, 2, 3, 4, 5, 9))
    terms = {draw(st.sampled_from(reps)): Fraction(draw(st.integers(-30, 30)), draw(dens))
             for _ in range(draw(st.integers(1, 4)))}
    return n, grelt(n, True, terms)


@CASES
@given(annihilator_cosets(), st.sampled_from((None, 2, 3, 5, 7)))
def test_integral_and_p_integral_representatives(case, p):
    # the p-integral case is the one coleman.p_integral_exponent takes
    n, j = case
    lattice = annihilator_In_formula(n)
    assert (dist._integral_coset_representative(j, lattice, p)
            == oracle_solve.integral_coset_representative(j, lattice, p))


@pytest.mark.parametrize("n", range(1, 130))
def test_split_prime_norm_matches_the_resultant(n):
    rng = random.Random(n)
    phi = polys.euler_phi(n)
    for size, den in ((1, 1), (4, 6)):
        nums = [rng.randint(-size, size) if rng.random() < 0.3 else 0
                for _ in range(phi)]
        nums[0] = nums[0] or 1
        x = CycElt(n, tuple(Fraction(c, den) for c in nums))
        assert (polys.cyclo_norm(x.nums, n, x.den)
                == oracle_arith.cyclo_norm(list(x.coeffs), n))
