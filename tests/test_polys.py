import random
from math import gcd, lcm

import pytest
from sympy import GF, Poly, Symbol, cyclotomic_poly, resultant

from circdist import distributions, polys
import oracle_arith
from oracle_arith import fp_resultant, fp_squarefree_part

X = Symbol("x")
SMALL_PRIMES = tuple(p for p in range(2, 60) if polys.is_probable_prime(p))


def to_sympy(coeffs):
    return Poly(list(reversed(coeffs)), X)


def test_int_poly_mul_matches_schoolbook():
    rng = random.Random(11)
    for _ in range(40):
        a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 60))]
        b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 60))]
        ref = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                ref[i + j] += ai * bj
        assert polys.int_poly_mul(a, b) == ref


def test_cyclotomic_against_quotient_recursion():
    # independent route: x^n - 1 divided by the product of the lower levels,
    # with the divisions done by sympy
    for n in [1, 2, 3, 4, 6, 8, 12, 18, 20, 30, 36, 105]:
        num = Poly(X ** n - 1, X)
        for d in range(1, n):
            if n % d == 0:
                num = num.exquo(to_sympy(polys.cyclotomic_polynomial(d)))
        assert to_sympy(polys.cyclotomic_polynomial(n)) == num
        assert to_sympy(polys.cyclotomic_polynomial(n)) == Poly(cyclotomic_poly(n, X), X)


def test_cyclotomic_recursion_matches_the_divisor_quotients():
    # Phi_(n/q)(x^q), over Phi_(n/q) unless q^2 | n, against (x^n - 1) over
    # the lower levels (`oracle_arith`), at every n <= 1200 and at three
    # squarefree levels with four and five prime factors
    for n in list(range(1, 1201)) + [1155, 2310, 3003]:
        assert polys.cyclotomic_polynomial(n) == oracle_arith.cyclotomic_polynomial(n), n


def test_radical_of_phi_mod_ell_is_phi_of_the_prime_to_ell_part():
    # Phi_(ell^a m) = Phi_m^phi(ell^a) mod ell with Phi_m separable, against
    # the squarefree factorisation over F_ell
    for n in range(1, 400):
        for ell in SMALL_PRIMES:
            m = n
            while m % ell == 0:
                m //= ell
            assert (tuple(c % ell for c in polys.cyclotomic_polynomial(m))
                    == oracle_arith.phi_radical(n, ell)), (n, ell)


def test_cyclotomic_frozen_values():
    assert polys.cyclotomic_polynomial(1) == (-1, 1)
    assert polys.cyclotomic_polynomial(4) == (1, 0, 1)
    # frozen from the quotient recursion: x^4 - x^2 + 1
    assert polys.cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    for n, val in [(1, 1), (2, 1), (12, 4), (45, 24), (120, 32)]:
        assert polys.euler_phi(n) == val


def test_fp_squarefree_part_handles_p_power_multiplicities():
    # (x+1)^6 over F_3 has vanishing derivative; the radical must still be x+1
    sixth = [1]
    for _ in range(6):
        sixth = polys.fp_mul(sixth, [1, 1], 3)
    assert fp_squarefree_part(sixth, 3) == [1, 1]
    # cyclotomic instance: level 18 at the ramified prime 3
    phi18 = [c % 3 for c in polys.cyclotomic_polynomial(18)]
    assert fp_squarefree_part(phi18, 3) == [1, 1]
    # mixed multiplicities: (x+1)^3 (x+2)^2 over F_3
    a = polys.fp_mul(polys.fp_mul([1, 1], [1, 1], 3), [1, 1], 3)
    a = polys.fp_mul(a, polys.fp_mul([2, 1], [2, 1], 3), 3)
    assert fp_squarefree_part(a, 3) == polys.fp_mul([1, 1], [2, 1], 3)


def sylvester_resultant(f, g, p):
    from sympy import Matrix
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    fr, gr = list(reversed(f)), list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + fr + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gr + [0] * (n - dg - 1 - i))
    return int(Matrix(rows).det()) % p


def test_fp_resultant_matches_sylvester_determinant():
    rng = random.Random(12)
    p = 10007
    for _ in range(20):
        f = [rng.randrange(p) for _ in range(rng.randint(2, 8))]
        g = [rng.randrange(p) for _ in range(rng.randint(2, 8))]
        f[-1] = f[-1] or 1
        g[-1] = g[-1] or 1
        assert fp_resultant(f, g, p) % p == sylvester_resultant(f, g, p)


def test_miller_rabin_rejects_psi_12():
    # the least strong pseudoprime to every prime base up to 37, below the
    # documented 3.3 * 10^24
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not polys.is_probable_prime(psi_12)
    assert polys.is_probable_prime(798330580441)


def test_miller_rabin_refuses_past_psi_13():
    # psi_13 passes all thirteen bases but is composite: from there on the
    # test would be no proof, so only a factor among the bases is answered
    psi_13 = 3317044064679887385961981
    assert psi_13 == 1287836182261 * 2575672364521
    for n in (psi_13, 10 ** 30 + 57):
        with pytest.raises(ValueError):
            polys.is_probable_prime(n)
    assert not polys.is_probable_prime(psi_13 + 1)


def test_split_prime_table():
    for n in range(1, 200):
        p, powers = polys.split_prime(n, polys.SPLIT_FROM)
        assert p > polys.SPLIT_FROM and (p - 1) % n == 0 and polys.is_probable_prime(p)
        assert len(powers) == n
        z = powers[1 % n]
        assert pow(z, n, p) == 1
        assert all(pow(z, n // q, p) != 1 for q in polys.prime_factors(n))
        assert all(powers[r] == pow(z, r, p) for r in range(n))
        prod = [1]
        for c in range(1, n + 1):
            if gcd(c, n) == 1:
                root = powers[c % n]
                prod = [(a - root * b) % p for a, b in zip([0] + prod, prod + [0])]
        assert prod == [c % p for c in polys.cyclotomic_polynomial(n)], n


def test_the_solver_reads_the_same_table():
    for n in (1, 2, 7, 60, 105):
        p = polys.split_prime(n, polys.SPLIT_FROM)[0]
        assert distributions._split_prime(n, p)[1] is polys.split_prime(n, p)[1]


def test_cyclo_norm_against_sympy_resultant():
    rng = random.Random(13)
    from fractions import Fraction
    for n in (5, 8, 12, 15):
        phi = to_sympy(polys.cyclotomic_polynomial(n))
        for _ in range(5):
            vec = [rng.randint(-5, 5) for _ in range(polys.euler_phi(n))]
            if not any(vec):
                continue
            ref = resultant(phi.as_expr(), to_sympy([int(v) for v in vec]).as_expr(), X)
            assert polys.cyclo_norm(vec, n) == ref


def test_cyclo_inverse_roundtrip():
    rng = random.Random(14)
    from fractions import Fraction
    for n in (4, 7, 12, 36):
        deg = polys.euler_phi(n)
        for _ in range(3):
            vec = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                   for _ in range(deg)]
            if not any(vec):
                vec[0] = Fraction(1)
            den = lcm(*(v.denominator for v in vec))
            inv, inv_den = polys.cyclo_inverse([int(v * den) for v in vec], n)
            inv = [Fraction(c * den, inv_den) for c in inv]
            # verify with exact rational convolution + reduction
            acc = [Fraction(0)] * (2 * deg - 1)
            for i, a in enumerate(vec):
                for j, b in enumerate(inv):
                    acc[i + j] += a * b
            phi = polys.cyclotomic_polynomial(n)
            for i in range(len(acc) - 1, deg - 1, -1):
                c = acc[i]
                if c:
                    for j in range(deg + 1):
                        acc[i - deg + j] -= c * phi[j]
            assert acc[:deg] == [Fraction(1)] + [Fraction(0)] * (deg - 1)


def test_rational_reconstruct():
    m = 10 ** 12 + 39
    from fractions import Fraction
    for num, den in [(3, 7), (-22, 5), (1, 1), (123, 991)]:
        a = num * pow(den, -1, m) % m
        assert polys.rational_reconstruct(a, m) == (num, den)


def test_order_at_matches_repeated_division():
    rng = random.Random(47)
    primes = [p for p in range(2, 50) if polys.is_probable_prime(p)]
    for _ in range(300):
        v = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
        for p in primes:
            v2 = v * p ** rng.randint(0, 5)
            e, w = 0, v2
            while w % p == 0:
                w //= p
                e += 1
            assert polys.order_at(v2, p) == e, (v2, p)
    with pytest.raises(ValueError):
        polys.order_at(0, 3)
