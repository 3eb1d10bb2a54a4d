"""Reference group-ring products for the differential tests.

These are the loops circdist used before products became one Kronecker
convolution over discrete-log coordinates, and before group-ring elements
held integer numerators, kept here only as oracles:

* `mul` multiplies every pair of terms, reduces the product of the two
  representatives with `canon_rep` and adds `Fraction`s in a dict, O(mu^2);
* `idempotent_e_n` sums c_H e_H over the subgroup expansion by repeated
  group-ring addition and checks c*c == d*c with the same pairwise loop;
* `annihilator_In_formula` builds each row sigma_g * d * e_n as a
  `Fraction` product and takes the integer left kernel of the mu rows at
  every level, as circdist did before I_n became the saturation of the
  coset rows of the minimal decomposition groups;
* `project_annihilator` maps every nonzero entry through `canon_rep`;
* `project` pushes each (rep, Fraction) term through `canon_rep` and adds
  the images in a dict;
* `section_lift` groups the units of the upper level by the `canon_rep` of
  their images, two `canon_rep`s per unit, and picks one preimage per term.
"""

from fractions import Fraction

from circdist import intlinalg
from circdist.groupring import (IdealLattice, LevelError, _e_n_expansion,
                                canon_rep, e_subgroup, grelt, group_reps,
                                rep_index, sigma, units)


def mul(x, y):
    if x.level != y.level or x.plus != y.plus:
        raise LevelError("group-ring mismatch")
    n, plus = x.level, x.plus
    acc = {}
    for r1, c1 in x.coeffs:
        for r2, c2 in y.coeffs:
            r = canon_rep(r1 * r2, n, plus)
            acc[r] = acc.get(r, Fraction(0)) + c1 * c2
    return grelt(n, plus, acc)


def is_idempotent(e):
    """c*c == d*c on the integer numerators c = d*e, by the pairwise loop."""
    d = e.denominator_lcm()
    c = [(r, int(v * d)) for r, v in e.coeffs]
    sq = {}
    for r1, c1 in c:
        for r2, c2 in c:
            r = canon_rep(r1 * r2, e.level, e.plus)
            sq[r] = sq.get(r, 0) + c1 * c2
    return {r: v for r, v in sq.items() if v} == {r: d * v for r, v in c}


def idempotent_e_n(n):
    if n < 2:
        raise LevelError("level must be >= 2")
    acc = grelt(n, True, {})
    for h, c in sorted(_e_n_expansion(n).items(), key=lambda t: sorted(t[0])):
        acc = acc + e_subgroup(n, True, h) * c
    if not is_idempotent(acc):
        raise ArithmeticError("e_n failed the idempotency check")
    return acc


def kernel_rows(n):
    """The rows sigma_g * d * e_n, each a Fraction product by `mul`."""
    e = idempotent_e_n(n)
    scale = e.denominator_lcm()
    rows = []
    for g in group_reps(n, True):
        prod = mul(sigma(n, g, True), e) * scale
        rows.append([int(c) for c in prod.to_vector()])
    return rows


def annihilator_In_formula(n):
    """The integer left kernel of `kernel_rows`, at every level."""
    kernel = intlinalg.left_kernel(kernel_rows(n))
    return IdealLattice(n, True, tuple(tuple(r) for r in kernel))


def project_annihilator(m, n, lattice):
    """Push-forward of the lattice rows with one canon_rep per nonzero entry."""
    reps_m = group_reps(m, lattice.plus)
    idx_n = rep_index(n, lattice.plus)
    rows = []
    for row in lattice.hnf:
        out = [0] * len(idx_n)
        for r, v in zip(reps_m, row):
            if v:
                out[idx_n[canon_rep(r % n if n > 1 else 1, n, lattice.plus)]] += v
        rows.append(out)
    return IdealLattice.from_rows(n, lattice.plus, rows)


def project(x, n, plus):
    """Push x along G_m -> G_n (n | m) and/or G -> G^+."""
    if x.level % n:
        raise LevelError("%d does not divide %d" % (n, x.level))
    if x.plus and not plus:
        raise LevelError("cannot lift from the plus quotient")
    acc = {}
    for r, c in x.coeffs:
        rr = canon_rep(r % n if n > 1 else 1, n, plus)
        acc[rr] = acc.get(rr, Fraction(0)) + c
    return grelt(n, plus, acc)


def section_lift(elt, target_level, choose):
    """One preimage representative at target_level per term of the plus
    element elt; choose picks among the sorted candidate representatives."""
    n = elt.level
    out = {}
    preimages = {}
    for x in units(target_level):
        r = canon_rep(x, target_level, True)
        down = canon_rep(x % n, n, True)
        preimages.setdefault(down, set()).add(r)
    for g, c in elt.coeffs:
        r = choose(sorted(preimages[g]))
        out[r] = out.get(r, Fraction(0)) + c
    return grelt(target_level, True, out)
