import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from circdist import intlinalg as la
from oracle_arith import gauss_solve
from oracle_hnf import bareiss_det


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = la.xgcd(a, b)
        assert g >= 0 and x * a + y * b == g
        assert a % g == 0 and b % g == 0 if g else (a == b == 0)


def test_hnf_canonical_form():
    h = la.hnf([[2, 4, 6], [4, 8, 12], [1, 2, 3]])
    assert h == [[1, 2, 3]]
    h = la.hnf([[0, 4], [2, 2]])
    assert h == [[2, 2], [0, 4]]
    # pivots positive, entries above pivot reduced
    h = la.hnf([[-3, 1], [0, -5]])
    assert all(row[next(i for i, v in enumerate(row) if v)] > 0 for row in h)


def test_hnf_is_basis_invariant():
    rng = random.Random(2)
    for _ in range(30):
        rows = random_matrix(rng, 4, 5)
        h1 = la.hnf(rows)
        # mix the generators unimodularly: add multiples, permute, negate
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        for i in range(len(mixed)):
            j = rng.randrange(len(mixed))
            if j != i:
                q = rng.randint(-3, 3)
                mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        mixed[0] = [-v for v in mixed[0]]
        assert la.hnf(mixed) == h1


def test_left_kernel_exact():
    rng = random.Random(3)
    for _ in range(40):
        rows = random_matrix(rng, 5, 3)
        kern = la.left_kernel(rows)
        ncols = len(rows[0])
        for v in kern:
            prod = [sum(v[i] * rows[i][j] for i in range(len(rows))) for j in range(ncols)]
            assert not any(prod)
        # rank + nullity
        rank = len(la.hnf(rows))
        assert len(kern) == len(rows) - rank


def test_right_kernel_and_saturate():
    rows = [[2, 0, 1], [0, 2, 1]]
    sat = la.saturate(rows, 3)
    # (1,1,1) = (row1+row2)/2 is integral and must be in the saturation
    assert la.hnf_contains(sat, [1, 1, 1])
    assert not la.hnf_contains(la.hnf(rows), [1, 1, 1])
    # saturation is idempotent
    assert la.saturate(sat, 3) == la.hnf(sat)


def test_membership_and_coords():
    h = la.hnf([[2, 1, 0], [0, 3, 1]])
    v = [sum(2 * a + 5 * b for a, b in [(x, y)]) for x, y in zip(h[0], h[1])]
    assert la.hnf_contains(h, v)
    assert la.hnf_coords(h, v) == [2, 5]
    assert not la.hnf_contains(h, [1, 0, 0])


def test_membership_needs_the_row_length():
    # zip used to cut the vector to the row length: [1, 0, 5] was a member
    for vec in ([1, 0, 5], [1], []):
        for query in (la.hnf_contains, la.hnf_coords):
            with pytest.raises(ValueError):
                query([[1, 0]], vec)
    # a zero lattice has no rows to take a length from
    assert la.hnf_contains([], [0, 0]) and la.hnf_coords([], []) == []


def test_lattice_index():
    sup = la.hnf([[1, 0], [0, 1]])
    sub = la.hnf([[2, 0], [0, 3]])
    assert la.lattice_index(sub, sup) == 6


def test_bareiss_det_matches_expansion():
    rng = random.Random(4)

    def det_naive(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det_naive(minor)
        return total

    for _ in range(25):
        m = random_matrix(rng, 4, 4, 6)
        assert bareiss_det(m) == det_naive(m)


@st.composite
def sublattice_pairs(draw):
    """(C, S): a nonsingular k x k C and a full-rank k x m S, so that C S
    spans a sublattice of index |det C| in the lattice of S."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(k, 7))
    small = st.integers(-6, 6)
    c = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k)
             .filter(lambda c: bareiss_det(c) != 0))
    s = draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=k, max_size=k)
             .filter(lambda s: len(la.hnf(s)) == k))
    return c, s


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sublattice_pairs())
def test_lattice_index_is_the_determinant_of_the_change_of_basis(case):
    c, s = case
    cs = [[sum(a * row[j] for a, row in zip(crow, s)) for j in range(len(s[0]))]
          for crow in c]
    assert la.lattice_index(la.hnf(cs), la.hnf(s)) == abs(bareiss_det(c))


def test_coset_reduce_supported_off_pivots():
    basis = la.hnf([[2, 1, 0]])
    nums, den = la.coset_reduce(basis, [4, 2, 0])
    rep = [Fraction(c, den) for c in nums]
    assert rep[0] == 0
    # representative is in the same coset: difference is a rational multiple
    # of the basis row
    diff = [Fraction(4) - rep[0], Fraction(2) - rep[1], Fraction(0) - rep[2]]
    assert diff[0] / 2 == diff[1] / 1 and diff[2] == 0


def test_coset_reduce_detects_integrality():
    # saturated lattice spanned by (2, 1): coset of (1, 0) has no integral
    # representative off the pivot (beta = -1/2), coset of (2, 1) does
    basis = la.hnf([[2, 1]])
    nums, den = la.coset_reduce(basis, [1, 0])
    assert any(Fraction(c, den).denominator != 1 for c in nums)
    nums, den = la.coset_reduce(basis, [4, 2])
    assert all(Fraction(c, den).denominator == 1 for c in nums)


def test_gauss_solve():
    # the Fraction elimination behind the reference lower_level_coeffs
    sol = gauss_solve([[1, 2], [3, 4]], [5, 6])
    assert sol == [Fraction(-4), Fraction(9, 2)]
    assert gauss_solve([[1, 1], [1, 1]], [0, 1]) is None
    sol = gauss_solve([[1, 1], [2, 2]], [3, 6])
    assert sol is not None and sol[0] + sol[1] == 3
