import cmath
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from circdist import groupring as gr
from circdist import polys
from circdist.cyclotomic import LevelError, PrecisionError, one, zeta
from circdist.groupring import (GroupRingElt, HypothesisNotMetError,
                                IdealLattice, annihilator_In_formula,
                                annihilator_In_oracle, annihilator_Tn,
                                annihilator_mu, decomposition_group, eps_n,
                                grelt, group_reps, idempotent_e_n,
                                image_is_p_times_I, project_annihilator,
                                sigma, stabilization_b0)


def random_elt(rng, n, plus=False, bound=4):
    return grelt(n, plus, {r: rng.randint(-bound, bound) for r in group_reps(n, plus)})


def test_convolution_is_a_ring():
    rng = random.Random(20)
    for n in (7, 12, 15):
        for plus in (False, True):
            a, b, c = (random_elt(rng, n, plus) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert gr.identity(n, plus) * a == a


def test_augmentation_is_a_ring_homomorphism():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.choice([8, 9, 21])
        a, b = random_elt(rng, n), random_elt(rng, n)
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        assert (a + b).augmentation() == a.augmentation() + b.augmentation()


def test_projection_is_a_ring_homomorphism():
    rng = random.Random(22)
    for m, n in [(12, 4), (36, 12), (45, 15), (30, 6)]:
        for _ in range(10):
            a, b = random_elt(rng, m), random_elt(rng, m)
            assert (a * b).project(to_level=n) == a.project(to_level=n) * b.project(to_level=n)
        assert gr.identity(m, False).project(to_level=n) == gr.identity(n, False)


def test_exponent_action_is_multiplicative():
    x = one(5) - zeta(5)
    r = grelt(5, False, {1: 2, 2: 1})
    s = grelt(5, False, {3: 1, 4: -1})
    assert (r + s).act_on(x) == r.act_on(x) * s.act_on(x)
    # and compatible with convolution through iterated action
    assert (r * s).act_on(x) == s.act_on(r.act_on(x))


def test_decomposition_group_examples():
    # every class at level 12 for the prime 2
    assert decomposition_group(12, 2) == group_reps(12, True)
    # prime power: the full group
    for n in (9, 16, 25):
        p = 3 if n == 9 else (2 if n == 16 else 5)
        assert decomposition_group(n, p) == group_reps(n, True)
    # level 15 at 3: 3 has order 4 mod 5, so the subgroup is everything
    d = decomposition_group(15, 3)
    # independent enumeration: CRT of (Z/3)^x with the powers of 3 mod 5
    frob = {pow(3, k, 5) for k in range(4)}
    members = {min(x, 15 - x) for x in range(1, 15)
               if gcd(x, 15) == 1 and x % 5 in frob}
    assert set(d) == members and len(members) == len(group_reps(15, True))
    with pytest.raises(LevelError):
        decomposition_group(15, 7)
    # ell = 1 divides every level and used to loop for ever; ell = 0 divided
    # by 0; a composite ell gave a wrong subgroup, such as (1, 5) at (12, 4)
    for n, ell in ((15, 1), (15, 0), (15, -3), (12, 4), (36, 6), (36, 9)):
        with pytest.raises(ValueError):
            decomposition_group(n, ell)


def test_stabilization_needs_a_prime():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            gr.stabilization_b0(3, p)


def bfs_subgroup_join(n, h, k):
    """Reference join: closure of {1} under every element of H and K."""
    gens = set(h) | set(k)
    members = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = gr.canon_rep(x * g, n, True)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def test_subgroup_join_matches_closure():
    # every ordered pair from {1}, G, the decomposition groups and the
    # subgroups the e_n expansion produces, at every level below 200
    pairs = 0
    for n in range(2, 200):
        subs = {frozenset({1}), frozenset(group_reps(n, True))}
        subs |= {frozenset(decomposition_group(n, ell)) for ell in polys.prime_factors(n)}
        subs |= set(gr._e_n_expansion(n))
        for h, k in itertools.product(subs, repeat=2):
            assert gr._subgroup_join(n, h, k) == bfs_subgroup_join(n, h, k), (n, h, k)
            pairs += 1
    assert pairs > 1000


def test_idempotent_examples():
    # prime powers: the idempotent is 1
    for n in (9, 16, 25, 27):
        assert idempotent_e_n(n) == gr.identity(n, True)
    # level 12: both decomposition groups are full, e = 1 - group average
    e12 = idempotent_e_n(12)
    avg = gr.e_subgroup(12, True, group_reps(12, True))
    assert e12 == gr.identity(12, True) - avg
    # idempotency across a sweep
    for n in range(2, 41):
        e = idempotent_e_n(n)
        assert e * e == e


def test_annihilator_zero_cases():
    for n in (3, 4, 5, 7, 8, 9, 16, 25):
        assert annihilator_In_formula(n) == IdealLattice(n, True, ())


def test_annihilator_I12():
    lat = annihilator_In_formula(12)
    assert lat.hnf == ((1, 1),)
    # the full group sum annihilates eps_12 (its norm to Q is Phi_12(1)^2-free: 1)
    total = gr.group_sum(12, True)
    assert lat.contains(total)
    assert total.act_on(eps_n(12), assume_tau_fixed=True) == one(12)


def test_annihilator_members_annihilate():
    for n in (12, 15, 20, 21, 24, 30, 33):
        lat = annihilator_In_formula(n)
        e = idempotent_e_n(n)
        eps = eps_n(n)
        for b in lat.basis_elements():
            assert b * e == grelt(n, True, {})
            assert b.act_on(eps, assume_tau_fixed=True) == one(n)


def test_formula_agrees_with_general_kernel():
    # the shortcut bases must agree with the generic kernel computation
    from circdist import intlinalg
    for n in (12, 15, 20, 21, 24, 30, 36, 40):
        lat = annihilator_In_formula(n)
        e = idempotent_e_n(n)
        scale = e.denominator_lcm()
        reps = group_reps(n, True)
        rows = [[int(c) for c in (sigma(n, g, True) * e * scale).to_vector()]
                for g in reps]
        kernel = intlinalg.left_kernel(rows)
        assert tuple(tuple(r) for r in kernel) == lat.hnf


@pytest.mark.parametrize("n", [455, 1001])
def test_unit_pivot_annihilators_need_no_kernel(monkeypatch, n):
    # the coset rows of several decomposition groups have HNF pivots all 1
    # at these levels, so saturating them takes no right kernel
    from circdist import intlinalg
    calls = []
    real = intlinalg.right_kernel
    monkeypatch.setattr(intlinalg, "right_kernel",
                        lambda rows, ncols: calls.append(ncols) or real(rows, ncols))
    lat = annihilator_In_formula(n)
    assert lat.rank > 0 and not calls


def test_oracle_equals_formula_small():
    for n in (6, 9, 10, 12, 14, 15, 18, 20, 21, 22, 24):
        assert annihilator_In_oracle(n) == annihilator_In_formula(n), n


def test_oracle_vectors_verify_exactly():
    lat = annihilator_In_oracle(20)
    eps = eps_n(20)
    for b in lat.basis_elements():
        assert b.act_on(eps, assume_tau_fixed=True) == one(20)


def test_oracle_rejects_a_kernel_vector_that_fails_the_exact_check(monkeypatch):
    real = gr._float_kernel

    def perturbed(rows):
        return [[v + 0.25 if i == 0 else v for i, v in enumerate(vec)]
                for vec in real(rows)]

    monkeypatch.setattr(gr, "_float_kernel", perturbed)
    with pytest.raises(PrecisionError, match="eps_12"):
        annihilator_In_oracle(12)


def test_oracle_respects_phi_bound():
    with pytest.raises(ValueError):
        annihilator_In_oracle(100, max_phi=16)


def test_annihilator_Tn_level4():
    lat = annihilator_Tn(4)
    # the lattice spanned by 1 + tau and 4: solve c_1 + 3 c_tau = 0 mod 4
    expected = IdealLattice.from_rows(4, False, [[1, 1], [4, 0]])
    assert lat == expected
    # membership: basis elements send -z_4 to 1
    w = -zeta(4)
    for b in lat.basis_elements():
        assert b.act_on(w) == one(4)


def test_annihilator_T_odd_index_two():
    for n in (3, 5, 7, 9):
        t = annihilator_Tn(n)
        ts = annihilator_Tn(n, starred=True)
        assert ts.contains_lattice(t)
        assert t.index_in(ts) == 2
        n_elt = grelt(n, False, {1: n})
        assert ts.contains(n_elt) and not t.contains(n_elt)


def test_annihilator_T_star_even_is_T():
    for n in (4, 8, 12):
        assert annihilator_Tn(n, starred=True) == annihilator_Tn(n)


def test_project_annihilator_equality_and_index():
    # push-forward of the root-of-unity annihilator: equality unless the
    # prime is 2 over an odd level
    for n, ell in [(4, 3), (6, 5), (6, 2), (8, 3), (12, 5), (4, 2), (10, 3)]:
        big = annihilator_mu(n * ell)
        assert project_annihilator(n * ell, n, big) == annihilator_mu(n), (n, ell)
    for n in (3, 5):
        big = annihilator_mu(2 * n)
        proj = project_annihilator(2 * n, n, big)
        target = annihilator_mu(n)
        assert target.contains_lattice(proj)
        assert proj != target
        assert proj.index_in(target) == 2


def test_project_T_star():
    # equality onto levels where 4 divides
    for m, n in [(24, 12), (36, 12)]:
        proj = project_annihilator(m, n, annihilator_Tn(m, starred=True))
        assert proj == annihilator_Tn(n, starred=True)
    # containment always; observed outcomes off the 4-divisible range are
    # recorded without asserting strictness
    for m, n in [(15, 3), (30, 6), (18, 6)]:
        proj = project_annihilator(m, n, annihilator_Tn(m, starred=True))
        assert annihilator_Tn(n, starred=True).contains_lattice(proj)


def test_root_annihilator_indices_at_large_levels():
    # [Z^phi(n) : Ann] is the order of the root of unity annihilated:
    # n for z_n and for -z_(2n), 2n for -z_n at odd n
    for n in (111, 117):
        mu = len(group_reps(n, False))
        full = IdealLattice.from_rows(n, False, [[int(i == j) for j in range(mu)]
                                                 for i in range(mu)])
        assert annihilator_mu(n).index_in(full) == n
        assert annihilator_Tn(n).index_in(full) == 2 * n
        assert annihilator_Tn(n, starred=True).index_in(full) == n


def test_hnf_canonicity_of_lattices():
    # the same lattice from different generating sets gives identical rows
    a = IdealLattice.from_rows(12, True, [[1, 1], [0, 2]])
    b = IdealLattice.from_rows(12, True, [[1, 3], [2, 2], [1, 1]])
    assert a == b and a.hnf == b.hnf


def test_lattice_membership_needs_one_entry_per_column():
    lat = annihilator_mu(12)
    assert lat.contains([12, 0, 0, 0]) and not lat.contains([1, 0, 0, 0])
    for vec in ([12, 0, 0, 0, 5], [12, 0, 0], []):
        with pytest.raises(ValueError):
            lat.contains(vec)
    # the zero lattice still knows its columns
    with pytest.raises(ValueError):
        IdealLattice(12, True, ()).contains([0, 0, 0])
    assert not IdealLattice(12, True, ()).contains([0, 1])


def test_lattice_comparisons_need_the_same_group_ring():
    mu12, mu24 = annihilator_mu(12), annihilator_mu(24)
    for other in (mu24, annihilator_In_formula(12)):
        with pytest.raises(LevelError):
            mu12.contains_lattice(other)
        with pytest.raises(LevelError):
            mu12.index_in(other)
    # same level, different plus flag
    i15, mu15 = annihilator_In_formula(15), annihilator_mu(15)
    with pytest.raises(LevelError):
        i15.contains_lattice(mu15)
    with pytest.raises(LevelError):
        mu15.index_in(i15)
    assert annihilator_Tn(12).contains_lattice(mu12)
    assert mu12.index_in(annihilator_Tn(12)) == 1


def test_stabilization_and_image_claim():
    for m, p in [(12, 3), (15, 5), (20, 5), (30, 2), (34, 2)]:
        b0 = stabilization_b0(m, p)
        assert image_is_p_times_I(m, p, b0)
        assert image_is_p_times_I(m, p, b0 + 1)
    # both sides zero on a pure prime power
    b0 = stabilization_b0(9, 3)
    assert image_is_p_times_I(9, 3, b0)
    with pytest.raises(HypothesisNotMetError):
        image_is_p_times_I(12, 3, stabilization_b0(12, 3) - 1)
    with pytest.raises(HypothesisNotMetError):
        image_is_p_times_I(15, 2, 1)


def test_stabilization_failure_is_the_exported_precision_error():
    import circdist
    with pytest.raises(circdist.PrecisionError, match="b = 0"):
        stabilization_b0.__wrapped__(35, 5, b_max=0)


def test_image_claim_at_levels_480_and_544():
    for m, p in [(30, 2), (34, 2)]:
        b0 = stabilization_b0(m, p)
        assert b0 == 3
        assert image_is_p_times_I(m, p, b0)


def test_group_ring_serialization():
    x = grelt(12, True, {1: Fraction(1, 2), 5: -2})
    obj = gr.gr_to_json(x)
    assert obj == {"level": 12, "plus": True, "coeffs": {"1": "1/2", "5": "-2"}}
    assert gr.gr_from_json(obj) == x


def test_from_vector_needs_one_entry_per_representative():
    assert gr.from_vector(12, True, [1, Fraction(2, 4)]) == grelt(12, True, {1: 1, 5: Fraction(1, 2)})
    for vec in ([1, 2, 3], [7], []):
        with pytest.raises(ValueError):
            gr.from_vector(12, True, vec)


def _flat(digits, orders):
    flat, stride = 0, 1
    for e, d in zip(digits, orders):
        flat += e % d * stride
        stride *= d
    return flat


def _digits(flat, orders):
    out = []
    for d in orders:
        flat, e = divmod(flat, d)
        out.append(e)
    return out


@pytest.mark.parametrize("levels", [range(3, 400), (972, 1215, 3645)])
def test_character_frame_is_an_isomorphism(levels):
    # stepping one axis multiplies by that axis's generator in G_n^+, and
    # conj holds inverses, so the frame's flat index is a group isomorphism
    assert gr.character_frame(1) == gr.character_frame(2) == ((), (1,), (0,))
    for n in levels:
        orders, walk, conj = gr.character_frame(n)
        at = gr._unit_positions(n, True)
        reps = group_reps(n, True)
        for axis in range(len(orders)):
            step = [1 if i == axis else 0 for i in range(len(orders))]
            gen = walk[_flat(step, orders)]
            for i, g in enumerate(walk):
                moved = _flat([e + s for e, s in zip(_digits(i, orders), step)], orders)
                assert at[walk[moved]] == at[g * gen % n], (n, axis, i)
        for i, g in enumerate(walk):
            assert reps[at[g * walk[conj[i]] % n]] == 1, (n, i)


@pytest.mark.parametrize("n", [3, 5, 13, 16, 35, 47, 60, 104, 105, 120, 243])
def test_character_sums_match_the_direct_sums(n):
    orders, walk, _ = gr.character_frame(n)
    rng = random.Random(n)
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in walk]
    got = gr.character_sums(n, vals)
    back = gr.character_sums(n, got, 1)
    for k in range(len(walk)):
        ks = _digits(k, orders)
        direct = sum(v * cmath.exp(-2j * cmath.pi * sum(a * b / d for a, b, d in
                                                          zip(ks, _digits(i, orders), orders)))
                     for i, v in enumerate(vals))
        assert abs(direct - got[k]) < 1e-12 * len(walk), (n, k)
    assert all(abs(b / len(walk) - a) < 1e-13 for a, b in zip(vals, back))
