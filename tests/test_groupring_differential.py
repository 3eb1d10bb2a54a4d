"""Group-ring products, e_n and the annihilator of eps_n against the loops
in oracle_groupring that they replaced.

* `*` (both the convolution and the pairwise path it keeps for sparse
  operands) and the convolution itself equal the pairwise loop on dense,
  sparse and rational operands in Z[G_n] and Z[G_n^+], at every
  2 <= n < 300 and at hypothesis draws; at the fixed levels 1215 and 3645
  the dense oracle runs where it takes at most a few seconds, and
  elsewhere products are checked against the oracle on sparse operands and
  through the projection to a lower level;
* the coset-averaging e_n (idempotent_e_n) equals the oracle's subgroup
  expansion summed into a vector at every 2 <= n < 1200 and at 2310 and
  3645, and e_n * e_n == e_n under the product `*` at every n < 1200 and
  at 10935 and 32805;
* the coset passes (`_times_e_n`) give j * e_n for rational j at every
  3 <= n < 400 and at 972 and 10935; building e_n takes no product, and
  solve_exponent multiplies no group-ring elements;
* idempotent_e_n and annihilator_In_formula equal the oracle at every
  2 <= n < 300; the oracle is the integer left kernel of the mu rows
  sigma_g * d * e_n at every level, so it checks the zero lattice of prime
  powers, the coset rows of one minimal decomposition group and the
  saturated coset rows of several.  At 408, 420, 455 and 1155, levels
  where the saturation adds vectors that the coset rows do not span, the
  rows equal the oracle too, and at 1155 that gain is asserted;
* the coset count of the pass table `_e_n_passes` rejects a decomposition
  group missing a member or holding a non-member at every level below 400
  with two prime factors, the rank certificate of annihilator_In_formula
  rejects a basis that has lost a row and an e_n(1) that gives a
  fractional count, and the coordinate walk rejects wrong generator orders;
* the one coordinate table `_coordinates` (keys by position, fold and the
  walk) equals the oracle's unit -> Kronecker index dict and its key sort
  at every n < 400 (both groups) and at 972, 10935 and 32805;
* the exponent solve's pseudo-inverse (`distributions._pseudo_inverse`,
  inv and back), which pairs chi with chi-bar by negating the digits of the
  flat index, character_sums and the certificate's eps log sums, which take
  each a^-1 by pow, equal bit for bit their construction on the oracle's
  conj and inverse_keys tables at every 2 <= n < 400 and at 972 and 10935;
* project_annihilator gives the rows of the canon_rep loop for the mu,
  T_n, T_n* and I_n lattices at every divisor of every level below 120, for
  single-congruence lattices of random weights and moduli (one or several
  pivots above 1) at random divisor pairs, and it projects the mu and T_n*
  lattices of level 120 with no HNF elimination; its cached column map gives
  GroupRingElt.project (full to full, full to plus, plus to plus) and both
  sections of coleman._section_lift at every divisor pair m | M < 120;
* the character transform `_fft`, on its one table of roots of unity
  (`cyclotomic._zeta_powers`), gives bit for bit the doubles of the oracle
  transform on its own cos/sin table, at every length below 600 and both
  signs; character_sums, all lines of an axis in one pass, gives bit for
  bit the oracle transform run line by line over the axes, on doubles with
  signed zeros, at every level below 1200 with n != 2 mod 4 and at 10935
  and 32805, returning a new list and leaving its input as it was;
* grelt normalizes rational draws to integer numerators over one
  denominator (den > 0, gcd(den, *nums) = 1, zero with den = 1), and coeffs
  and the JSON form read back the value drawn.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_groupring as oracle
import oracle_lattice
import oracle_verify
from circdist import coleman, distributions, intlinalg, polys
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


def expansion_vector(n):
    """(nums, den) of the oracle's e_n expansion summed over one
    denominator: e_H puts 1/|H| on each member of H."""
    terms = oracle.e_n_expansion(n)
    den = lcm(*(c.denominator * len(h) for h, c in terms.items()))
    at = gr._unit_positions(n, True)
    nums = [0] * len(gr.group_reps(n, True))
    for h, c in terms.items():
        v = c.numerator * (den // (c.denominator * len(h)))
        for r in h:
            nums[at[r]] += v
    g = gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def test_coset_averaging_matches_the_subgroup_expansion():
    for n in [*range(2, 1200), 2310, 3645]:
        e = gr.idempotent_e_n(n)
        assert (e.nums, e.den) == expansion_vector(n), n


def test_e_n_is_idempotent_under_the_product():
    for n in [*range(2, 1200), 10935, 32805]:
        e = gr.idempotent_e_n(n)
        assert e * e == e, n


def test_coset_passes_match_the_product_by_e_n():
    rng = random.Random(31)
    for n in [*range(3, 400), 972, 10935]:
        j = random_elt(rng, n, True)
        assert gr._times_e_n(n, j.nums, j.den) == j * gr.idempotent_e_n(n), n


def _spy(calls, name, real):
    return lambda *args: calls.append(name) or real(*args)


@pytest.mark.parametrize("n", [972, 10935, 32805])
def test_e_n_takes_no_product(n, monkeypatch):
    calls = []
    monkeypatch.setattr(polys, "int_poly_mul", _spy(calls, "int_poly_mul", polys.int_poly_mul))
    monkeypatch.setattr(gr, "_product", _spy(calls, "_product", gr._product))
    e = gr.idempotent_e_n.__wrapped__(n)
    assert calls == [] and e == gr.idempotent_e_n(n), n


@pytest.mark.parametrize("m,p,c,k", [(4, 3, 2, 5), (5, 3, 1, 7)])
def test_solve_applies_e_n_without_a_product(m, p, c, k, monkeypatch):
    # eps_n^c, the unit of the criterion 07 tower (m, p, c) at level m p^k:
    # each candidate j is certified as j e_n, by the coset passes
    n = m * p ** k
    u = gr.grelt(n, True, {1: c}).act_on(gr.eps_n(n), assume_tau_fixed=True)
    calls = []
    monkeypatch.setattr(gr.GroupRingElt, "__mul__",
                        _spy(calls, "__mul__", gr.GroupRingElt.__mul__))
    j = distributions.solve_exponent(u)
    assert calls == [], n
    monkeypatch.undo()
    e = gr.idempotent_e_n(n)
    assert j * e == e * c, n


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
    # the uncached constructions: a cached I_1155 would skip the
    # certificate, and a cached pass table the broken decomposition group
    gr.idempotent_e_n(1155)     # cached from the true decomposition groups
    with mock.patch.object(target, name, broken(getattr(target, name))), \
            mock.patch.object(gr, "_e_n_passes", gr._e_n_passes.__wrapped__):
        with pytest.raises(ArithmeticError, match="rank"):
            gr.annihilator_In_formula.__wrapped__(1155)


def test_annihilator_rank_certificate_rejects_a_fractional_count():
    # e_1155(1) is 233/240 for mu = 240; adding 1/7 to it leaves no whole
    # number of killed characters
    e = gr.idempotent_e_n(1155)
    bad = gr.GroupRingElt(1155, True, (e.nums[0] * 7 + e.den,) + tuple(7 * v for v in e.nums[1:]),
                          7 * e.den)
    with mock.patch.object(gr, "idempotent_e_n", lambda n: bad):
        with pytest.raises(ArithmeticError, match="fractional"):
            gr.annihilator_In_formula.__wrapped__(1155)


# the levels below 400 with two or more prime factors, where e_n has passes
SEVERAL_PRIMES = [n for n in range(2, 400) if len(polys.prime_factors(n)) > 1]


def mutant_tables(mutants):
    """Build the pass table of each level of SEVERAL_PRIMES once per group
    mutants(n, D) returns for each decomposition group D, with D replaced;
    returns the number built, each of which must raise ArithmeticError."""
    real, built = gr.decomposition_group, 0
    for n in SEVERAL_PRIMES:
        for ell in polys.prime_factors(n):
            for bad in mutants(n, real(n, ell)):
                with mock.patch.object(gr, "decomposition_group",
                                       lambda m, l: bad if l == ell else real(m, l)):
                    with pytest.raises(ArithmeticError, match="overlapping"):
                        gr._e_n_passes.__wrapped__(n)
                built += 1
    return built


def test_pass_table_rejects_a_group_missing_a_member():
    # each non-identity member of each D with at least three, dropped (D of
    # order 2 less a member is the trivial group, whose cosets are exact)
    assert mutant_tables(lambda n, d: [tuple(r for r in d if r != x)
                                       for x in d[1:] if len(d) >= 3]) == 28910


def test_pass_table_rejects_a_group_with_a_non_member():
    # each non-member of each proper D, added
    assert mutant_tables(lambda n, d: [tuple(sorted(d + (x,)))
                                       for x in gr.group_reps(n, True) if x not in d]) == 7117


def test_coordinates_multiply_units():
    # fold[keys[pos[u]] + keys[pos[v]]] is the position of u*v, for all
    # units u, v
    for n in range(1, 120):
        for plus in (True, False):
            _, keys, fold = gr._coordinates(n, plus)
            pos = gr._unit_positions(n, plus)
            us = gr.units(n)
            assert sorted(pos) == list(us), n
            for u in us:
                for v in us:
                    assert (fold[keys[pos[u]] + keys[pos[v]]]
                            == pos[gr.canon_rep(u * v, n, plus)])


@pytest.mark.parametrize("levels", [range(1, 400), (972, 10935, 32805)])
def test_coordinate_table_matches_the_unit_dict(levels):
    # keys by position, fold, the frame's walk and the inverse keys equal
    # those read off the unit -> Kronecker index dict and its key sort
    for n in levels:
        for plus in (True, False):
            _, keys, fold = gr._coordinates(n, plus)
            assert keys == oracle.rep_keys(n, plus), (n, plus)
            assert fold == oracle.coordinates(n, plus)[1], (n, plus)
        reps = gr.group_reps(n, True)
        walk = tuple(reps[i] for i in gr._coordinates(n, True)[0])
        assert walk == oracle.character_frame(n)[1], n


def test_plus_products_use_the_plus_axes():
    # the Kronecker box of Z[G_n^+] spans the axes of G_n^+, not of G_n
    for n in range(1, 400):
        length = 1
        for _, d in gr._frame(n, True):
            length *= 2 * d - 1
        assert len(gr._coordinates(n, True)[2]) == length, n


def test_coordinates_reject_a_walk_that_misses_units():
    gr._coordinates.cache_clear()
    try:
        for n, wrong in ((35, lambda fs: [(g, d // 2) for g, d in fs]),
                         (64, lambda fs: [(g, 2 * d) for g, d in fs]),
                         (45, lambda fs: [(fs[0][0], fs[0][1])] * 2),
                         # the right count, but g^2 has half the order of g
                         (35, lambda fs: [(g * g % 35, d) for g, d in fs])):
            factors = gr._cyclic_factors(n)
            with mock.patch.object(gr, "_cyclic_factors", lambda n: wrong(factors)), \
                    mock.patch.object(gr, "_frame", gr._frame.__wrapped__):
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


def _bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def test_transform_roots_match_the_cos_sin_table():
    rng = random.Random(21)
    for d in range(1, 600):
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        for sign in (1, -1):
            assert _bits(gr._fft(x, sign)) == _bits(oracle.fft(x, sign)), (d, sign)


def _oracle_character_sums(n, vals, sign):
    # the per-line oracle transform on every line of each axis, the slowest
    # axis first, each pass leaving its axis the fastest
    for d in reversed(oracle.character_frame(n)[0]):
        width = len(vals) // d
        vals = [v for line in zip(*[vals[t * width:(t + 1) * width] for t in range(d)])
                for v in oracle.fft(list(line), sign)]
    return vals


def _check_character_sums(n, rng):
    # random doubles and exact zeros of either sign (the inverse transform
    # of the exponent solver gets 0j at every character it drops)
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    vals = [rng.choice(zeros) if rng.random() < 0.2
            else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in gr.group_reps(n, True)]
    before = _bits(vals)
    for sign in (1, -1):
        got = gr.character_sums(n, vals, sign)
        assert got is not vals and _bits(vals) == before, (n, sign)
        assert _bits(got) == _bits(_oracle_character_sums(n, vals, sign)), (n, sign)


def test_character_sums_match_the_per_line_oracle():
    levels = [n for n in range(1, 1200) if n % 4 != 2]
    # prime axes (47: 23, 89: 44 = 4 * 11) and several axes (105: 4 x 6,
    # 405: 27 x 4, 1155: 4 x 6 x 10) are among them
    assert [oracle.character_frame(n)[0] for n in (47, 89, 105, 405, 1155)] == [
        (23,), (44,), (4, 6), (27, 4), (4, 6, 10)]
    rng = random.Random(26)
    for n in levels:
        _check_character_sums(n, rng)


@pytest.mark.parametrize("n", [10935, 32805])
def test_character_sums_match_the_per_line_oracle_deep(n):
    _check_character_sums(n, random.Random(n))


def _oracle_pseudo_inverse(n):
    """(inv, back) of `distributions._pseudo_inverse` built on the oracle's
    walk and conj, transformed by the per-line oracle."""
    _, walk, conj = oracle.character_frame(n)
    at = gr._unit_positions(n, True)
    leps, e_n = gr._log_eps(n), gr.idempotent_e_n(n)
    vals = [complex(leps[g], e_n.nums[at[g]] / e_n.den) for g in walk]
    sums = _oracle_character_sums(n, vals, -1)
    inv = [2 / (len(walk) * (a + b)) if round((a - b).imag / 2) else 0j
           for a, b in zip(sums, (sums[c].conjugate() for c in conj))]
    back = [None] * len(walk)
    for g, c in zip(walk, conj):
        back[at[g]] = c
    return vals, inv, tuple(back)


def _check_frame_inverses(n, rng):
    vals, inv, back = _oracle_pseudo_inverse(n)
    assert _bits(gr.character_sums(n, vals)) == _bits(_oracle_character_sums(n, vals, -1)), n
    got_inv, got_back = distributions._pseudo_inverse(n)
    assert _bits(got_inv) == _bits(inv) and got_back == back, n
    reps = gr.group_reps(n, True)
    # a sparse exponent keeps its terms; a dense one is read around its mode
    sparse = [(a, rng.randint(1, 9)) for a in rng.sample(reps, min(3, len(reps)))]
    dense = [(a, rng.choice((5, 5, 5, rng.randint(1, 2 ** 70)))) for a in reps]
    for terms in (sparse, dense):
        assert distributions._eps_log_sums(n, terms) == oracle_verify.eps_log_sums(n, terms), n


@pytest.mark.parametrize("levels", [range(2, 400), (972, 10935)])
def test_frame_inverses_match_the_oracle_tables(levels):
    rng = random.Random(35)
    for n in levels:
        _check_frame_inverses(n, rng)
