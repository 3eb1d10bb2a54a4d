"""New field arithmetic against the reference arithmetic in oracle_arith.

Products, Galois action, level changes and norms must give exactly the
coefficients the Fraction-tuple / dense-table / four-product code gives, on
random levels up to 120 and on the large levels the tower solves reach.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_arith as oracle
from circdist import polys
from circdist.cyclotomic import (CycElt, SubfieldError, act, lower_level,
                                 norm_down, raise_level)

FIXED_LEVELS = (96, 243, 405, 972, 1215)
SLOW = settings(max_examples=4, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                       HealthCheck.large_base_example])
QUICK = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

# small, word-sized and multi-word coefficients, with zeros common
ints = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2 ** 64, 2 ** 64),
                 st.integers(-2 ** 400, 2 ** 400))
rationals = st.builds(Fraction, st.integers(-50, 50), st.sampled_from((1, 1, 2, 3, 12, 35)))


def elements(draw, level, integral, coeff=ints):
    if not integral:
        coeff = st.one_of(coeff, rationals)
    deg = polys.euler_phi(level)
    return CycElt(level, draw(st.lists(coeff, min_size=deg, max_size=deg)))


def units_mod(n):
    return [a for a in range(1, n) if gcd(a, n) == 1] or [1]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def check_same(new, old_coeffs):
    assert new.coeffs == old_coeffs
    ref = CycElt(new.level, old_coeffs)
    assert new == ref and hash(new) == hash(ref)


# ---------------------------------------------------------------------------
# integer products


@QUICK
@given(st.lists(ints, max_size=40), st.lists(ints, max_size=40))
def test_int_poly_mul_matches_four_product_kronecker(a, b):
    assert polys.int_poly_mul(a, b) == oracle.int_poly_mul(a, b)
    assert polys.int_poly_mul(a, a) == oracle.int_poly_mul(a, a)


@QUICK
@given(st.integers(16, 80), st.integers(1, 80), st.integers(0, 900), st.data())
def test_int_poly_mul_long_signed_operands(la, lb, bits, data):
    # both operands past the schoolbook cutoff, or one on each side of it
    coeff = st.integers(-2 ** bits, 2 ** bits)
    a = data.draw(st.lists(coeff, min_size=la, max_size=la))
    b = data.draw(st.lists(coeff, min_size=lb, max_size=lb))
    assert polys.int_poly_mul(a, b) == oracle.int_poly_mul(a, b)


# ---------------------------------------------------------------------------
# field operations


def _field_ops(data, level, integral):
    x = elements(data.draw, level, integral)
    y = elements(data.draw, level, integral)
    check_same(x * y, oracle.mul(x, y))
    check_same(x * x, oracle.mul(x, x))
    a = data.draw(st.sampled_from(units_mod(level)))
    check_same(act(a, x), oracle.act(a, x))
    n = data.draw(st.sampled_from(divisors(level)))
    low = elements(data.draw, n, integral)
    lifted = raise_level(low, level)
    check_same(lifted, oracle.raise_level(low, level))
    check_same(lower_level(lifted, n), oracle.lower_level(lifted, n))
    assert lower_level(lifted, n) == low
    try:
        expected = oracle.lower_level(x, n)
    except SubfieldError:
        with pytest.raises(SubfieldError):
            lower_level(x, n)
    else:
        check_same(lower_level(x, n), expected)


@QUICK
@given(st.integers(1, 120), st.booleans(), st.data())
def test_field_ops_random_levels(level, integral, data):
    _field_ops(data, level, integral)


@QUICK
@given(st.integers(1, 120), st.booleans(), st.data())
def test_norm_down_random_levels(level, integral, data):
    # small coefficients: a norm multiplies up to phi(level) conjugates
    x = elements(data.draw, level, integral, st.integers(-3, 3))
    n = data.draw(st.sampled_from(divisors(level)))
    check_same(norm_down(x, n), oracle.norm_down(x, n))


@pytest.mark.parametrize("level", FIXED_LEVELS)
@pytest.mark.parametrize("integral", (True, False))
@SLOW
@given(data=st.data())
def test_field_ops_fixed_levels(level, integral, data):
    _field_ops(data, level, integral)


@pytest.mark.parametrize("level,n", [(96, 32), (243, 81), (405, 135), (972, 324),
                                     (1215, 405)])
@SLOW
@given(integral=st.booleans(), data=st.data())
def test_norm_down_fixed_levels(level, n, integral, data):
    x = elements(data.draw, level, integral)
    check_same(norm_down(x, n), oracle.norm_down(x, n))


# ---------------------------------------------------------------------------
# one value, one representation


@QUICK
@given(st.integers(1, 120), st.data())
def test_equality_and_hash_ignore_how_a_value_was_built(level, data):
    x = elements(data.draw, level, False)
    y = elements(data.draw, level, False)
    for z in ((x + y) - y, (x * 6) * Fraction(1, 6), -(-x), x * 1):
        assert z == x and hash(z) == hash(x)
        assert (z.nums, z.den) == (x.nums, x.den)
    prod = x * y
    rebuilt = CycElt(level, prod.coeffs)
    assert rebuilt == prod and hash(rebuilt) == hash(prod)
    assert gcd(prod.den, *prod.nums) == 1 and prod.den > 0
