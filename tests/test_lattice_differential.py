"""Group-ring lattices and subgroups against the constructions in
oracle_lattice that they replaced.

At every level 2 <= n < 400:

* annihilator_mu and annihilator_Tn (plain and starred) return rows that
  satisfy their congruence, form a canonical HNF and have the lattice's
  index; where phi(n) <= 72, the default level cap of the CLI, they are
  also the rows of the kernel oracle (which takes ~3 s for those levels
  and ~150 s for the whole grid);
* annihilator_In_formula returns the coset oracle's rows wherever
  e_n = 1 - e_H, which are the levels with one minimal decomposition group
  (test_groupring_differential compares every level with the kernel
  oracle);
* decomposition_group agrees for every prime l | n.

stabilization_b0 equals the oracle's subgroup-containment b_0 for every
prime p | m <= 80 and for p <= 7 not dividing m < 40; at (37, 37) it does
not build the units of level 37^3.

units and group_reps are compared with their definitions at every n < 3000.
"""

from fractions import Fraction
from math import gcd
from operator import mul
from unittest import mock

import oracle_groupring
import oracle_lattice as oracle
from circdist import groupring as gr
from circdist import polys

LEVELS = range(2, 400)
KERNEL_ORACLE_MAX_PHI = 72


def check_root_lattice(lattice, exps, order):
    """The rows are the canonical HNF of {c : sum c_i exps[i] = 0 mod order}:
    upper triangular with positive pivots and entries above each pivot in
    [0, pivot), each a member, and the pivot product is the index
    order / gcd(exps, order) of the lattice in Z^mu."""
    rows = [list(r) for r in lattice.hnf]
    mu = len(exps)
    assert len(rows) == mu, lattice
    cols = list(zip(*rows))
    index = 1
    for i, row in enumerate(rows):
        above = cols[i][:i]
        assert len(row) == mu and not any(row[:i]) and row[i] > 0
        assert not above or (min(above) >= 0 and max(above) < row[i])
        assert sum(map(mul, row, exps)) % order == 0
        index *= row[i]
    g = order
    for e in exps:
        g = gcd(g, e)
    assert index == order // g


def test_root_annihilators_match_oracle():
    for n in LEVELS:
        cases = ((gr.annihilator_mu(n), "mu", oracle.annihilator_mu),
                 (gr.annihilator_Tn(n), "T", oracle.annihilator_Tn),
                 (gr.annihilator_Tn(n, starred=True), "T*",
                  lambda n: oracle.annihilator_Tn(n, starred=True)))
        for lattice, root, build in cases:
            check_root_lattice(lattice, *gr._root_exponents(n, root))
            if polys.euler_phi(n) <= KERNEL_ORACLE_MAX_PHI:
                assert lattice == build(n), (n, root)


def _coset_subgroup(n):
    """H when e_n = 1 - e_H, else None."""
    terms = oracle_groupring.e_n_expansion(n)
    triv = frozenset({1})
    if (len(terms) == 2 and terms.get(triv) == 1
            and set(terms.values()) == {Fraction(1), Fraction(-1)}):
        return next(s for s in terms if s != triv)
    return None


def test_coset_rows_match_oracle():
    checked = 0
    for n in LEVELS:
        h = _coset_subgroup(n)
        if h is not None:
            lattice = gr.annihilator_In_formula(n)
            assert [list(r) for r in lattice.hnf] == oracle.coset_rows(n, h), n
            checked += 1
    # the shortcut is the common case, not a corner
    assert checked > len(LEVELS) // 2


def test_subgroups_match_oracle():
    for n in LEVELS:
        for ell in polys.prime_factors(n):
            got = gr.decomposition_group(n, ell)
            assert got == oracle.decomposition_group(n, ell), (n, ell)


def test_stabilization_b0_matches_oracle():
    pairs = [(m, p) for m in range(1, 81) for p in polys.prime_factors(m)]
    pairs += [(m, p) for m in range(1, 40) for p in (2, 3, 5, 7) if m % p]
    for m, p in pairs:
        assert gr.stabilization_b0(m, p) == oracle.stabilization_b0(m, p), (m, p)


def test_stabilization_b0_builds_no_units():
    # the old search filtered every plus representative of the levels
    # 37^2 and 37^3, 24,642 of them at the top; group_reps is uncached here
    # so that a cached call cannot hide one to units
    with mock.patch.object(gr, "units", mock.Mock(side_effect=gr.units)) as spy, \
            mock.patch.object(gr, "group_reps", gr.group_reps.__wrapped__):
        assert gr.stabilization_b0.__wrapped__(37, 37) == 0
    assert mock.call(37 ** 3) not in spy.call_args_list


def test_units_and_reps_match_definitions():
    # uncached, so that 3000 levels of units do not stay in memory
    with mock.patch.object(gr, "units", gr.units.__wrapped__):
        for n in range(1, 3000):
            units = (1,) if n <= 2 else tuple(a for a in range(1, n) if gcd(a, n) == 1)
            plus = (1,) if n <= 2 else tuple(sorted({min(a, n - a) for a in units}))
            assert gr.units(n) == units, n
            assert gr.group_reps.__wrapped__(n, False) == units, n
            assert gr.group_reps.__wrapped__(n, True) == plus, n
