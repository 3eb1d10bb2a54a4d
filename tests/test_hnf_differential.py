"""Echelonization with rows reduced as each pivot is set, against the
reference in oracle_hnf that reduces only at the end.

The HNF is unique, so hnf, left_kernel, right_kernel and saturate must
return identical rows on every input: random shapes up to 10 x 10, rank
deficient inputs, entries up to 2^40, and the single-congruence kernels
behind the root-of-unity annihilators.  intlinalg.congruence_hnf, which
writes those lattices down without a kernel, must return the kernel's
rows cut to their first mu entries.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_hnf as oracle
from circdist import groupring as gr
from circdist import intlinalg as la

QUICK = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 40, 2 ** 40))


@st.composite
def matrices(draw, entry=entries):
    r, c = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))


@st.composite
def deficient_matrices(draw):
    """Rows padded with repeats, multiples and sums of other rows, shuffled."""
    rows = draw(matrices(st.integers(-20, 20)))
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows))


def check_all(rows):
    ncols = len(rows[0])
    assert la.hnf(rows) == oracle.hnf(rows)
    assert la.left_kernel(rows) == oracle.left_kernel(rows)
    assert la.right_kernel(rows, ncols) == oracle.right_kernel(rows, ncols)
    assert la.saturate(rows, ncols) == oracle.saturate(rows, ncols)


@QUICK
@given(matrices())
def test_random_shapes_match_oracle(rows):
    check_all(rows)


@QUICK
@given(deficient_matrices())
def test_rank_deficient_inputs_match_oracle(rows):
    check_all(rows)


@QUICK
@given(matrices(st.integers(-2 ** 40, 2 ** 40)))
def test_wide_entries_match_oracle(rows):
    check_all(rows)


@pytest.mark.parametrize("n", range(2, 41))
def test_root_annihilator_kernels_match_oracle(n):
    """The kernel of every [exps..., order] row behind annihilator_mu and
    annihilator_Tn (plain and starred), and the lattices those return."""
    for root, lattice in (("mu", gr.annihilator_mu(n)), ("T", gr.annihilator_Tn(n)),
                          ("T*", gr.annihilator_Tn(n, starred=True))):
        exps, order = gr._root_exponents(n, root)
        rows, ncols = [exps + [order]], len(exps) + 1
        kern = oracle.right_kernel(rows, ncols)
        assert la.right_kernel(rows, ncols) == kern
        assert [list(r) for r in lattice.hnf] == oracle.hnf([r[:ncols - 1] for r in kern])


# oracle_hnf's elimination is unreduced: past ~20 columns with 40-bit
# entries it has taken from seconds to minutes per kernel, so wider rows
# are checked against intlinalg.right_kernel, which the tests above pin
# to oracle_hnf
ORACLE_MAX_COLUMNS = 20


@st.composite
def congruences(draw):
    modulus = draw(st.one_of(st.integers(1, 12), st.integers(1, 2 ** 40)))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.sampled_from((modulus, -modulus)),
                      st.integers(-4 * modulus, 4 * modulus),
                      st.integers(-2 ** 42, 2 ** 42))
    return draw(st.lists(entry, max_size=40)), modulus


@QUICK
@given(congruences())
def test_congruence_hnf_matches_kernel(case):
    coeffs, modulus = case
    mu = len(coeffs)
    kernel = oracle.right_kernel if mu + 1 <= ORACLE_MAX_COLUMNS else la.right_kernel
    expected = [r[:mu] for r in kernel([coeffs + [modulus]], mu + 1)]
    assert la.congruence_hnf(coeffs, modulus) == expected
