"""Reference group-ring lattices for the differential tests.

These are the constructions circdist used before the root-of-unity
annihilators were written down in closed form, kept here only as oracles:

* `annihilator_mu` and `annihilator_Tn` solve sum_g c_g e_g = 0 (mod N)
  through the integer kernel of the row [e..., N] and take the HNF of the
  kernel rows cut to their first mu entries;
* `coset_rows` builds the H-coset indicator rows for e_n = 1 - e_H from
  every representative g, O(mu |H|), and takes their HNF;
* `decomposition_group` and `gal_fixing_subgroup` run through every unit
  and reduce each member with `canon_rep`;
* `stabilization_b0` tests containment of those two subgroups at the
  levels m*p^(b+1) and m*p^(b+2), as circdist did before it tested only
  the units 1 + k*m*p^b against the Frobenius residues.
"""

from math import gcd

from circdist import intlinalg, polys
from circdist.groupring import (IdealLattice, LevelError, canon_rep,
                                group_reps, _unit_positions, units)


def _root_annihilator_lattice(n, reps, exps, order):
    mu = len(reps)
    row = [exps[g] for g in reps] + [order]
    kern = intlinalg.right_kernel([row], mu + 1)
    return IdealLattice.from_rows(n, False, [r[:mu] for r in kern])


def _dlog_linear(k0, t, L):
    d = gcd(k0, L)
    if t % d:
        raise ArithmeticError("discrete log does not exist")
    return (t // d) * pow(k0 // d, -1, L // d) % (L // d)


def annihilator_Tn(n, starred=False):
    if n < 2:
        raise LevelError("level must be >= 2")
    reps = group_reps(n, False)
    if starred and n % 2 == 1:
        L = 4 * n
        k0 = (2 * n + 2) % L
        order = L // gcd(k0, L)
        exps = {}
        for a in reps:
            atil = a if a % 2 == 1 else a + n
            t = (2 * n + 2 * atil) % L
            exps[a] = _dlog_linear(k0, t, L)
    else:
        L = 2 * n
        k0 = (n + 2) % L
        order = L // gcd(k0, L)
        exps = {}
        for a in reps:
            t = (n + 2 * a) % L
            exps[a] = _dlog_linear(k0, t, L)
    return _root_annihilator_lattice(n, reps, exps, order)


def annihilator_mu(n):
    reps = group_reps(n, False)
    return _root_annihilator_lattice(n, reps, {a: a % n for a in reps}, n)


def coset_rows(n, h):
    """HNF of the indicator rows of the cosets gH in G_n^+."""
    reps = group_reps(n, True)
    idx = _unit_positions(n, True)
    seen = set()
    rows = []
    for g in reps:
        coset = frozenset(canon_rep(g * x, n, True) for x in h)
        if coset not in seen:
            seen.add(coset)
            row = [0] * len(reps)
            for r in coset:
                row[idx[r]] = 1
            rows.append(row)
    return intlinalg.hnf(rows)


def decomposition_group(n, ell):
    q = 1
    while n % (q * ell) == 0:
        q *= ell
    m = n // q
    frob = {1}
    if m > 1:
        f = ell % m
        while f not in frob:
            frob.add(f)
            f = (f * ell) % m
    members = set()
    for x in units(n):
        if m == 1 or (x % m) in frob:
            members.add(canon_rep(x, n, True))
    return tuple(sorted(members))


def gal_fixing_subgroup(level, base):
    out = set()
    for x in units(level):
        r = x % base
        if r == 1 % base or r == (base - 1) % base:
            out.add(canon_rep(x, level, True))
    return out


def stabilization_b0(m, p, b_max=12):
    for b in range(b_max + 1):
        base = m * p ** b
        if all(gal_fixing_subgroup(lev, base) <= set(decomposition_group(lev, ell))
               for ell in sorted(set(polys.prime_factors(m)) | {p})
               for lev in (base * p, base * p * p)):
            return b
    raise ArithmeticError("no stabilization level found below b = %d" % b_max)
