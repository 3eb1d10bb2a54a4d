import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from circdist import cyclotomic as cyc
from circdist import polys
from circdist import cyclotomic_polynomial_coeffs
from circdist.cyclotomic import (CycElt, GaloisElt, LevelError, SubfieldError,
                                 act, is_p_unit, is_totally_positive, is_unit,
                                 lower_level, norm_down, norm_to_q, one,
                                 raise_level, reduce_mod_ell, sigma_ell, tau,
                                 valuation_at_p, vanishes_at_all_primes_above,
                                 zeta, zeta_power)
from circdist.groupring import eps_n, grelt
from circdist.polys import euler_phi, is_probable_prime


def test_cyclotomic_polynomial_examples():
    assert cyclotomic_polynomial_coeffs(1) == (-1, 1)
    assert cyclotomic_polynomial_coeffs(4) == (1, 0, 1)
    assert cyclotomic_polynomial_coeffs(12) == (1, 0, -1, 0, 1)


def test_field_ring_axioms_random():
    rng = random.Random(5)
    for n in (7, 12, 20):
        deg = euler_phi(n)

        def rand():
            return CycElt(n, tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                                   for _ in range(deg)))

        for _ in range(10):
            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_zeta_is_primitive_root():
    for n in (2, 3, 4, 9, 12, 30):
        z = zeta(n)
        assert z ** n == one(n)
        for d in range(1, n):
            if n % d == 0 and d < n:
                assert z ** d != one(n)


def test_act_examples():
    # z_4 under a = 3 is -z_4
    assert act(GaloisElt(4, 3), zeta(4)) == -zeta(4)
    x = one(5) - zeta(5)
    assert act(GaloisElt(5, 1), x) == x
    assert act(GaloisElt(5, 2), x) == one(5) - zeta(5) ** 2
    with pytest.raises(LevelError):
        act(GaloisElt(4, 3), zeta(5))
    with pytest.raises(ValueError):
        GaloisElt(6, 2)


def test_compatible_roots_coercion():
    # z_n = z_(mn)^m, exactly
    for n, m in [(3, 4), (4, 5), (6, 5), (2, 9)]:
        assert raise_level(zeta(n), n * m) == zeta_power(n * m, m)


def test_lower_level_membership_check():
    x = raise_level(one(5) - zeta(5) * 3, 15)
    assert lower_level(x, 5) == one(5) - zeta(5) * 3
    with pytest.raises(SubfieldError):
        lower_level(zeta(15), 5)


@pytest.mark.parametrize("m", [420, 1155, 1365, 2310])
def test_lower_level_at_every_divisor_of_large_levels(m):
    # past the range of the Fraction reference, which takes tens of seconds
    # per pair at these levels: a raised element comes back, and zeta_m lies
    # in no proper subfield but Q(zeta_n) = Q(zeta_2n) for odd n
    rng = random.Random(m)
    for n in (d for d in range(1, m) if m % d == 0):
        y = CycElt(n, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in range(euler_phi(n))))
        assert lower_level(raise_level(y, m), n) == y, n
        if m == 2 * n and n % 2:
            assert raise_level(lower_level(zeta(m), n), m) == zeta(m)
        else:
            with pytest.raises(SubfieldError):
                lower_level(zeta(m), n)


def test_lower_level_degree_one_step():
    # z_30 = -z_30^16 = -z_15^8
    assert lower_level(zeta(30), 15) == -zeta_power(15, 8)
    assert lower_level(raise_level(one(1) * 3, 2), 1) == one(1) * 3
    assert lower_level(zeta(2), 1) == -one(1)


def test_norm_examples():
    # (1-i)(1+i) = 2
    assert norm_down(one(4) - zeta(4), 2) == one(2) * 2
    # l | m collapse: N from level 8 to 4 of 1 - z_8 is 1 - z_4
    assert norm_down(one(8) - zeta(8), 4) == one(4) - zeta(4)
    # coprime case, cross-multiplied to avoid the inverse:
    # N^15_5(1 - z_15) * sigma_3(1 - z_5) = 1 - z_5
    lhs = norm_down(one(15) - zeta(15), 5)
    s3 = sigma_ell(3, 5)
    assert lhs * act(s3, one(5) - zeta(5)) == one(5) - zeta(5)


def test_norm_relation_sweep_for_one_minus_zeta():
    # at every level ml <= 200 with m <= 30: the norm of 1 - z_(ml) is
    # 1 - z_m (l | m) or its sigma_l-twisted quotient (l coprime to m)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97]
    for m in range(2, 31):
        for ell in primes:
            if m * ell > 200:
                break
            lhs = norm_down(one(m * ell) - zeta(m * ell), m)
            x = one(m) - zeta(m)
            if m % ell == 0:
                assert lhs == x, (m, ell)
            else:
                assert lhs * act(sigma_ell(ell, m), x) == x, (m, ell)


def test_norm_transitivity_and_equivariance():
    rng = random.Random(6)
    chains = [(n, m, M) for M in range(2, 61) for m in range(2, M + 1)
              for n in range(2, m + 1) if M % m == 0 and m % n == 0]
    for n, m, M in chains:
        deg = euler_phi(M)
        x = CycElt(M, tuple(Fraction(rng.randint(-2, 2)) for _ in range(deg)))
        if x.is_zero():
            x = one(M)
        assert norm_down(x, n) == norm_down(norm_down(x, m), n), (n, m, M)
    # Galois equivariance: N(g x) = (g mod n) N(x)
    for _ in range(10):
        M, n = rng.choice([(12, 4), (30, 6), (36, 12)])
        deg = euler_phi(M)
        x = CycElt(M, tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg)))
        if x.is_zero():
            continue
        a = rng.choice([u for u in range(1, M) if __import__("math").gcd(u, M) == 1])
        lhs = norm_down(act(GaloisElt(M, a), x), n)
        rhs = act(GaloisElt(n, a % n), norm_down(x, n))
        assert lhs == rhs


def test_sigma_ell_examples():
    assert sigma_ell(2, 4) == GaloisElt(4, 1)
    assert sigma_ell(3, 5) == GaloisElt(5, 2)
    # CRT solve: 1 mod 9 and the inverse Frobenius 2 mod 5
    s = sigma_ell(3, 45)
    assert s == GaloisElt(45, 37)
    assert 37 % 9 == 1 and (37 * 3) % 5 == 1


def test_reduce_mod_ell():
    assert reduce_mod_ell(one(3) * 2, 5) == [2]
    # 1 - z_3 mod 3 is nilpotent: its square is divisible by Phi_3 mod 3
    res = reduce_mod_ell(one(3) - zeta(3), 3)
    assert res == [1, 2]
    from circdist import polys
    sq = polys.fp_mul(res, res, 3)
    phi3 = [c % 3 for c in cyclotomic_polynomial_coeffs(3)]
    assert polys.fp_divmod(sq, phi3, 3)[1] == []
    with pytest.raises(ValueError):
        reduce_mod_ell(CycElt(3, (Fraction(1, 2), Fraction(0))), 2)


def test_vanishes_at_all_primes_above():
    assert vanishes_at_all_primes_above(cyc.zero(5), 7)
    assert not vanishes_at_all_primes_above(one(3) * 2, 5)
    # z_3 = 1 at every prime above 3: the pair of values at level 12 agree
    x = (one(12) - zeta_power(12, 7)) - (one(12) - zeta_power(12, 3))
    assert vanishes_at_all_primes_above(x, 3)
    # independent check by explicit division over F_3 (sympy)
    from sympy import GF, Poly, Symbol, gcd as sgcd
    X = Symbol("x")
    phi = Poly(list(reversed(cyclotomic_polynomial_coeffs(12))), X, domain=GF(3))
    rad = phi.exquo(sgcd(phi, phi.diff(X)))
    res = Poly(list(reversed([int(c) % 3 for c in x.coeffs])), X, domain=GF(3))
    assert res.rem(rad) == Poly(0, X, domain=GF(3))


def _vanishing_verdict(test, x, ell):
    try:
        return test(x, ell)
    except ValueError:
        return "not integral"


def test_vanishing_matches_the_squarefree_factorisation():
    # the closed-form radical Phi_m mod ell (n = ell^a m) against the
    # radical by squarefree factorisation over F_ell (`oracle_arith`), at
    # every n < 400 and prime ell < 60: random integral x, x / d for d prime
    # to ell, x / ell, zero residues ell x, and (1 - z^m) x + ell y, which
    # lies in every prime above ell when ell | n, with and without a unit
    # residue added
    import oracle_arith
    rng = random.Random(41)
    primes = [p for p in range(2, 60) if is_probable_prime(p)]
    for n in range(1, 400):
        phi = euler_phi(n)
        x, y = (CycElt(n, [rng.randint(-2, 2) for _ in range(phi)]) for _ in range(2))
        halves, thirds = x * Fraction(1, 2), x * Fraction(1, 3)
        for ell in primes:
            m = n
            while m % ell == 0:
                m //= ell
            cases = [x, thirds if ell == 2 else halves, x * Fraction(1, ell), x * ell]
            if m < n:
                z = (one(n) - zeta_power(n, m)) * x + y * ell
                cases += [z, z + one(n)]
            for c in cases:
                assert (_vanishing_verdict(vanishes_at_all_primes_above, c, ell)
                        == _vanishing_verdict(oracle_arith.vanishes_at_all_primes_above,
                                              c, ell)), (n, ell, c)


def test_vanishing_is_an_ideal_property():
    rng = random.Random(7)
    x = (one(12) - zeta_power(12, 7)) - (one(12) - zeta_power(12, 3))
    for _ in range(10):
        y = CycElt(12, tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)))
        assert vanishes_at_all_primes_above(x * y, 3)


def test_valuation_examples():
    assert valuation_at_p(one(9) - zeta(9), 3) == 1
    assert valuation_at_p(one(9) * 3, 3) == 6
    # independent oracle: 3 = (1-z_9)^6 * u with u a unit
    u = one(9) * 3
    for _ in range(6):
        u = u * cyc.inverse(one(9) - zeta(9))
    assert u.is_integral() and abs(norm_to_q(u)) == 1
    # group-ring exponent: valuation equals the augmentation, here 2 + 1
    x = grelt(5, False, {1: 2, 2: 1}).act_on(one(5) - zeta(5))
    assert valuation_at_p(x, 5) == 3
    # independent oracle: |norm| = 5^3
    assert abs(norm_to_q(x)) == 5 ** 3
    with pytest.raises(LevelError):
        valuation_at_p(one(6) - zeta(6), 3)
    with pytest.raises(ZeroDivisionError):
        valuation_at_p(cyc.zero(9), 3)


def test_valuation_is_additive():
    rng = random.Random(8)
    for _ in range(8):
        n, p = rng.choice([(9, 3), (25, 5), (8, 2)])
        deg = euler_phi(n)

        def rand():
            while True:
                v = CycElt(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg)))
                if not v.is_zero():
                    return v

        x, y = rand(), rand()
        assert valuation_at_p(x * y, p) == valuation_at_p(x, p) + valuation_at_p(y, p)


def test_unit_checks():
    assert is_unit(one(12) - zeta(12))          # Phi_12(1) = 1
    assert not is_unit(one(9) - zeta(9))        # Phi_9(1) = 3
    assert is_p_unit(one(9) - zeta(9), 3)
    assert not is_unit(one(3) * 2)
    assert not is_p_unit(one(3) * 2, 3)
    # sympy oracle for the two norms used above
    from sympy import cyclotomic_poly, Symbol
    X = Symbol("x")
    assert cyclotomic_poly(12, X).subs(X, 1) == 1
    assert cyclotomic_poly(9, X).subs(X, 1) == 3


def test_totally_positive():
    assert is_totally_positive(eps_n(12))
    assert not is_totally_positive(-one(5))
    assert is_totally_positive(one(5) * 2)
    with pytest.raises(ValueError):
        is_totally_positive(zeta(5))     # not tau-fixed
    with pytest.raises(ZeroDivisionError):
        is_totally_positive(cyc.zero(5))


def test_boolean_outputs_are_galois_stable():
    # the distinguished embedding is a choice; boolean outcomes must not
    # depend on replacing an element by a Galois conjugate
    rng = random.Random(9)
    from math import gcd
    for n in (7, 9, 12, 15):
        units = [a for a in range(2, n) if gcd(a, n) == 1]
        x = one(n) - zeta(n)
        e = eps_n(n)
        for a in units:
            assert is_unit(act(GaloisElt(n, a), x)) == is_unit(x)
            assert is_totally_positive(act(GaloisElt(n, a), e)) == is_totally_positive(e)
            for ell in (2, 5):
                if n % ell:
                    assert (vanishes_at_all_primes_above(act(GaloisElt(n, a), x), ell)
                            == vanishes_at_all_primes_above(x, ell))


def test_serialization_roundtrip():
    x = CycElt(12, (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)))
    obj = cyc.cyc_to_json(x)
    assert obj == {"level": 12, "coeffs": ["1/2", "-3", "0", "7/5"]}
    assert cyc.cyc_from_json(obj) == x


def test_inverse_is_kept_for_the_life_of_its_element(monkeypatch):
    # apply_integer_exponents inverts the same eps_n again and again: one
    # polys.cyclo_inverse per element, kept on it and on nothing else
    calls, real = [], polys.cyclo_inverse

    def counted(nums, n):
        calls.append(n)
        return real(nums, n)

    monkeypatch.setattr(polys, "cyclo_inverse", counted)
    x = eps_n(21)
    first = cyc.inverse(x)
    assert cyc.inverse(x) is first and first * x == one(21)
    assert x ** -2 == first * first and calls == [21]
    for k in range(2, 40):
        y = one(12) * k + zeta(12)
        assert cyc.inverse(y) * y == one(12)
    assert len(calls) == 39
    with pytest.raises(AttributeError):
        first._inverse                   # no link back from the inverse
    held = sys.getrefcount(first)
    del x
    assert sys.getrefcount(first) == held - 1
    with pytest.raises(ZeroDivisionError):
        cyc.inverse(one(7) * 0)


def test_zero_has_no_double_embeddings():
    with pytest.raises(ZeroDivisionError):
        cyc.double_embeddings(cyc.zero(5))


def test_zero_has_no_embedding_logs():
    with pytest.raises(ZeroDivisionError):
        cyc.embedding_logs(cyc.zero(5))


def test_zero_interval_embedding_builds_no_cosine_table(monkeypatch):
    built = []
    monkeypatch.setattr(cyc, "_cos_bounds", lambda n, prec: built.append(prec))
    with pytest.raises(ZeroDivisionError):
        cyc.interval_embedding(cyc.zero(405), 1)
    assert built == []


def test_embeddings_of_a_non_real_element_are_refused():
    x = zeta(5) + 2
    with pytest.raises(ValueError, match="not fixed by conjugation"):
        cyc.embedding_logs(x)
    with pytest.raises(ValueError, match="not fixed by conjugation"):
        cyc.interval_embedding(x, 1)
    assert len(cyc.double_embeddings(x)[1]) == 2      # moduli stay readable


def test_sigma_ell_matches_a_search_over_the_units():
    # the unit that is 1 mod the ell-part q of n and ell^-1 mod n / q
    for n in range(2, 500):
        for ell in (p for p in range(2, n + 1) if n % p == 0 and is_probable_prime(p)):
            q = max(ell ** k for k in range(n.bit_length()) if n % ell ** k == 0)
            m = n // q
            found = [a for a in range(n)
                     if a % q == 1 % q and a * ell % m == 1 % m and gcd(a, n) == 1]
            assert len(found) == 1 and sigma_ell(ell, n) == GaloisElt(n, found[0]), (n, ell)


def test_powers_and_actions_make_no_product_by_one(monkeypatch):
    # x ** k and x^(sum k_a sigma_a) start from their first factor: x ** k
    # costs (bits of k - 1) squarings and (ones in k - 1) products, and a
    # one-term exponent with coefficient 1 is a bare Galois action
    x = one(15) * 2 + zeta(15) - zeta(15) ** 4
    naive = [one(15)]
    for _ in range(9):
        naive.append(naive[-1] * x)
    calls = []
    real = cyc.polys.int_poly_mul
    monkeypatch.setattr(cyc.polys, "int_poly_mul",
                        lambda a, b: calls.append(1) or real(a, b))

    def products(value, expected):
        calls.clear()
        assert value() == expected
        return len(calls)

    for k in range(10):
        want = k.bit_length() + bin(k).count("1") - 2 if k else 0
        assert products(lambda: x ** k, naive[k]) == want, k
    assert products(lambda: grelt(15, False, {2: 1}).act_on(x), act(2, x)) == 0
    assert products(lambda: grelt(15, False, {}).act_on(x), one(15)) == 0
    assert products(lambda: grelt(15, False, {1: 1, 2: 2}).act_on(x),
                    x * act(2, naive[2])) == 2
    assert products(lambda: norm_down(x, 15), x) == 0
    assert products(lambda: norm_down(x, 5), lower_level(x * act(11, x), 5)) == 1


def test_relative_galois_group_reads_the_units_of_the_top_level():
    for m in range(1, 73):
        for n in (d for d in range(1, m + 1) if m % d == 0):
            units = [a for a in range(1, m + 1) if gcd(a, m) == 1]
            expected = units if n <= 2 else [a for a in units if a % n == 1]
            assert cyc.relative_galois_group(m, n) == expected, (m, n)
