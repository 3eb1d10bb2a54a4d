"""Group-ring products, e_n and the annihilator of eps_n against the loops
in oracle_groupring that they replaced.

* `*` (both the convolution and the pairwise path it keeps for sparse
  operands) and the convolution itself equal the pairwise loop on dense,
  sparse and rational operands in Z[G_n] and Z[G_n^+], at every
  2 <= n < 300 and at hypothesis draws; at the fixed levels 1215 and 3645
  the dense oracle runs where it takes at most a few seconds, and
  elsewhere products are checked against the oracle on sparse operands and
  through the projection to a lower level;
* idempotent_e_n and annihilator_In_formula equal the oracle at every
  2 <= n < 300; the oracle is the integer left kernel of the mu rows
  sigma_g * d * e_n at every level, so it checks the zero lattice of prime
  powers, the coset rows of one minimal decomposition group and the
  saturated coset rows of several.  At 408, 420, 455 and 1155, levels
  where the saturation adds vectors that the coset rows do not span, the
  rows equal the oracle too, and at 1155 that gain is asserted;
* the idempotency certificate rejects e_n with one coefficient changed,
  the rank certificate of annihilator_In_formula rejects a basis that has
  lost a row, and the coordinate walk rejects wrong generator orders;
* project_annihilator gives the rows of the canon_rep loop for the mu,
  T_n, T_n* and I_n lattices at every divisor of every level below 120, for
  single-congruence lattices of random weights and moduli (one or several
  pivots above 1) at random divisor pairs, and it projects the mu and T_n*
  lattices of level 120 with no HNF elimination; its cached column map gives
  GroupRingElt.project (full to full, full to plus, plus to plus) and both
  sections of coleman._section_lift at every divisor pair m | M < 120;
* grelt normalizes rational draws to integer numerators over one
  denominator (den > 0, gcd(den, *nums) = 1, zero with den = 1), and coeffs
  and the JSON form read back the value drawn.
"""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_groupring as oracle
import oracle_lattice
from circdist import coleman, intlinalg, polys
from circdist import groupring as gr

LEVELS = range(2, 300)
FIXED_LEVELS = (1215, 3645)
DENSE_ORACLE_MAX_PAIRS = 324 ** 2    # ~1 s: one dense product in Z[G_1215^+]
SLOW = settings(max_examples=6, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
QUICK = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def elements(draw, n, plus):
    """Dense (every representative) or sparse (1 to 3 terms), with small or
    multi-word integer coefficients or rationals.  The coefficients come
    from a drawn seed, so that dense elements at large levels stay cheap
    to generate."""
    dense = draw(st.booleans())
    terms = None if dense else draw(st.integers(1, 3))
    return random_elt(random.Random(draw(st.integers(0, 2 ** 32))), n, plus, terms,
                      rational=draw(st.booleans()), bits=draw(st.sampled_from((3, 70))))


def random_elt(rng, n, plus, terms=None, rational=True, bits=3):
    reps = gr.group_reps(n, plus)
    support = reps if terms is None else rng.sample(reps, min(terms, len(reps)))
    bound = 2 ** bits
    return gr.grelt(n, plus, {r: Fraction(rng.randint(-bound, bound),
                                          rng.choice((1, 2, 3, 12, 35, 97)) if rational else 1)
                              for r in support})


def convolved(x, y):
    """x * y through the convolution whatever the operands' support."""
    prod = gr._convolve(x.level, x.plus, x._terms(), y._terms())
    return gr.from_vector(x.level, x.plus, [Fraction(v, x.den * y.den) for v in prod])


def check_product(x, y):
    want = oracle.mul(x, y)
    assert x * y == want
    if x.coeffs and y.coeffs:
        assert convolved(x, y) == want


@QUICK
@given(st.data(), st.integers(2, 299), st.booleans())
def test_products_match_loop(data, n, plus):
    x = data.draw(elements(n, plus))
    y = data.draw(elements(n, plus))
    check_product(x, y)
    assert x * x == oracle.mul(x, x)


def test_products_match_loop_at_every_level():
    rng = random.Random(8)
    for n in LEVELS:
        for plus in (True, False):
            dense = random_elt(rng, n, plus)
            check_product(random_elt(rng, n, plus, terms=1, rational=False), dense)
            check_product(random_elt(rng, n, plus, terms=3), dense)
            check_product(random_elt(rng, n, plus, terms=2), random_elt(rng, n, plus, terms=2))
        if polys.euler_phi(n) <= 120:
            check_product(random_elt(rng, n, True), random_elt(rng, n, True))


@SLOW
@given(st.data(), st.sampled_from(FIXED_LEVELS), st.booleans())
def test_products_at_fixed_levels(data, n, plus):
    x = data.draw(elements(n, plus))
    y = data.draw(elements(n, plus))
    if len(x.coeffs) * len(y.coeffs) <= DENSE_ORACLE_MAX_PAIRS:
        check_product(x, y)
    else:
        # multiplication commutes with the projection to level n/9, where
        # the oracle is affordable
        low = n // 9
        xl, yl = x.project(to_level=low), y.project(to_level=low)
        assert (x * y).project(to_level=low) == oracle.mul(xl, yl)


def test_squares_use_one_operand():
    rng = random.Random(9)
    for n in (1215, 1001):
        x = random_elt(rng, n, True, terms=40)
        assert x * x == oracle.mul(x, x)


def test_one_term_products_skip_the_convolution(monkeypatch):
    # a product by a one-term element (a sigma_g, or e_n = 1 at a prime
    # power) takes the pairwise loop however dense the other operand is
    rng = random.Random(10)
    cases = []
    for n in (27, 49, 125, 243, 1215):
        for plus in (True, False):
            dense = random_elt(rng, n, plus)
            one_term = random_elt(rng, n, plus, terms=1)
            cases += [(dense, one_term), (one_term, dense)]
    cases += [(random_elt(rng, n, True), gr.idempotent_e_n(n)) for n in (27, 49, 125, 243)]
    calls = []
    convolve = gr._convolve
    monkeypatch.setattr(gr, "_convolve", lambda n, plus, a, b: calls.append((a, b))
                        or convolve(n, plus, a, b))
    products = [x * y for x, y in cases]
    assert not calls
    monkeypatch.undo()
    for (x, y), prod in zip(cases, products):
        assert prod == convolved(x, y) == oracle.mul(x, y)


def test_idempotent_and_annihilator_match_oracle():
    for n in LEVELS:
        e = gr.idempotent_e_n(n)
        assert e == oracle.idempotent_e_n(n), n
        assert gr.annihilator_In_formula(n) == oracle.annihilator_In_formula(n), n


def coset_lattice(n):
    """HNF of the coset rows of every decomposition group of level n."""
    rows = []
    for ell in polys.prime_factors(n):
        rows += oracle_lattice.coset_rows(n, gr.decomposition_group(n, ell))
    return gr.IdealLattice.from_rows(n, True, rows)


@pytest.mark.parametrize("n", [408, 420, 455, 1155])
def test_saturated_annihilator_matches_oracle(n):
    got = gr.annihilator_In_formula(n)
    assert got == oracle.annihilator_In_formula(n)
    if n == 1155:
        # the coset rows span a proper sublattice of full rank: the
        # saturation is what completes them
        cosets = coset_lattice(n)
        assert got.contains_lattice(cosets) and cosets.rank == got.rank
        assert cosets != got


@pytest.mark.parametrize("target, name, broken", [
    # the saturated basis loses its last row
    (intlinalg, "saturate", lambda real: lambda rows, ncols: real(rows, ncols)[:-1]),
    # D_3, one of the four minimal decomposition groups at 1155, is replaced
    # by the whole group, which is not minimal, so the D_3 coset rows are lost
    (gr, "decomposition_group",
     lambda real: lambda n, ell: gr.group_reps(n, True) if ell == 3 else real(n, ell)),
], ids=["saturate", "decomposition_group"])
def test_annihilator_rank_certificate_rejects_a_lost_row(target, name, broken):
    gr._e_n_expansion(1155)     # cached from the true decomposition groups
    with mock.patch.object(target, name, broken(getattr(target, name))):
        with pytest.raises(ArithmeticError, match="rank"):
            gr.annihilator_In_formula(1155)


@pytest.mark.parametrize("n", [12, 15, 35, 60, 105, 231, 1215])
def test_certificate_rejects_a_changed_coefficient(n):
    e = gr.idempotent_e_n(n)
    gr._certify_idempotent(e)
    reps = gr.group_reps(n, True)
    coeffs = dict(e.coeffs)
    rng = random.Random(n)
    for r in {reps[0], reps[-1], rng.choice(reps)}:
        # idempotents of Q[G] have coefficients in (1/|G|) Z, and 7 divides
        # no |G| here, so these changes cannot land on another idempotent
        for delta in (Fraction(1, 7), Fraction(-3, 7)):
            bad = gr.grelt(n, True, {**coeffs, r: coeffs.get(r, 0) + delta})
            assert not oracle.is_idempotent(bad)
            with pytest.raises(ArithmeticError):
                gr._certify_idempotent(bad)


def test_coordinates_multiply_units():
    # fold[index[u] + index[v]] is the position of u*v, for all units u, v
    for n in range(1, 120):
        for plus in (True, False):
            index, fold = gr._coordinates(n, plus)
            pos = gr.rep_index(n, plus)
            us = gr.units(n)
            assert sorted(index) == list(us), n
            for u in us:
                for v in us:
                    assert fold[index[u] + index[v]] == pos[gr.canon_rep(u * v, n, plus)]


def test_coordinates_reject_a_walk_that_misses_units():
    gr._coordinates.cache_clear()
    try:
        for n, wrong in ((35, lambda fs: [(g, d // 2) for g, d in fs]),
                         (64, lambda fs: [(g, 2 * d) for g, d in fs]),
                         (45, lambda fs: [(fs[0][0], fs[0][1])] * 2),
                         # the right count, but g^2 has half the order of g
                         (35, lambda fs: [(g * g % 35, d) for g, d in fs])):
            factors = gr._cyclic_factors(n)
            with mock.patch.object(gr, "_cyclic_factors", lambda n: wrong(factors)):
                with pytest.raises(ArithmeticError):
                    gr._coordinates(n, True)
    finally:
        gr._coordinates.cache_clear()


def test_projections_match_loop():
    for m in range(2, 120):
        lattices = (gr.annihilator_mu(m), gr.annihilator_Tn(m),
                    gr.annihilator_Tn(m, starred=True), gr.annihilator_In_formula(m))
        for n in (d for d in range(1, m + 1) if m % d == 0):
            for lat in lattices:
                got = gr.project_annihilator(m, n, lat)
                assert got == oracle.project_annihilator(m, n, lat), (m, n, lat.plus)


@QUICK
@given(st.data(), st.integers(2, 150), st.booleans(), st.integers(2, 60), st.booleans(),
       st.integers(0, 2 ** 32))
def test_congruence_projections_match_loop(data, m, plus, modulus, scaled, seed):
    # weights scaled by divisors of the modulus make several pivots > 1
    rng = random.Random(seed)
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    weights = [rng.randrange(modulus) * (rng.choice(divisors) if scaled else 1)
               for _ in gr.group_reps(m, plus)]
    lat = gr.IdealLattice(m, plus, tuple(map(tuple, intlinalg.congruence_hnf(weights, modulus))))
    n = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    assert gr.project_annihilator(m, n, lat) == oracle.project_annihilator(m, n, lat)


def test_root_annihilator_projections_take_no_hnf():
    lattices = (gr.annihilator_mu(120), gr.annihilator_Tn(120, starred=True))
    with mock.patch.object(intlinalg, "hnf", mock.Mock(side_effect=intlinalg.hnf)) as spy:
        images = [(lat, n, gr.project_annihilator(120, n, lat))
                  for lat in lattices for n in range(1, 121) if 120 % n == 0]
    assert spy.call_count == 0
    for lat, n, got in images:
        assert got == oracle.project_annihilator(120, n, lat), n


def test_element_projections_match_loop():
    rng = random.Random(10)
    for big in range(2, 120):
        for n in (d for d in range(1, big + 1) if big % d == 0):
            for plus, to_plus in ((False, False), (False, True), (True, True)):
                for terms in (None, 2):
                    x = random_elt(rng, big, plus, terms)
                    got = x.project(to_level=n, to_plus=to_plus)
                    assert got == oracle.project(x, n, to_plus), (big, n, plus, to_plus)


def test_section_lifts_match_loop():
    rng = random.Random(11)
    sections = (lambda cands: cands[0], lambda cands: cands[-1])
    for big in range(2, 120):
        for m in (d for d in range(1, big + 1) if big % d == 0):
            x = random_elt(rng, m, True)
            for choose in sections:
                assert (coleman._section_lift(x, big, choose)
                        == oracle.section_lift(x, big, choose)), (m, big)


@QUICK
@given(st.data(), st.integers(2, 299), st.booleans())
def test_grelt_normalizes_rational_draws(data, n, plus):
    # keys are any integers naming units (r + k*n, and n - r in the plus
    # quotient), and coefficients may cancel to zero
    us = gr.units(n)
    terms = data.draw(st.dictionaries(
        st.builds(lambda u, k: u + k * n, st.sampled_from(us), st.integers(-2, 2)),
        st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=6))
    x = gr.grelt(n, plus, terms)
    assert len(x.nums) == len(gr.group_reps(n, plus))
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1 and x.coeffs == ()
    want = {}
    for r, c in terms.items():
        rr = gr.canon_rep(r, n, plus)
        want[rr] = want.get(rr, Fraction(0)) + c
    assert x.coeffs == tuple(sorted((r, c) for r, c in want.items() if c))
    assert x.to_vector() == [Fraction(v, x.den) for v in x.nums]
    assert gr.grelt(n, plus, dict(x.coeffs)) == x
    assert gr.gr_from_json(gr.gr_to_json(x)) == x
