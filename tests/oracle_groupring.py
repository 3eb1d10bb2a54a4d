"""Reference group-ring products for the differential tests.

These are the loops circdist used before products became one Kronecker
convolution over discrete-log coordinates, and before group-ring elements
held integer numerators, kept here only as oracles:

* `mul` multiplies every pair of terms, reduces the product of the two
  representatives with `canon_rep` and adds `Fraction`s in a dict, O(mu^2);
* `e_n_expansion` writes e_n as a combination of subgroup idempotents e_H,
  multiplying the factors (1 - e_D) symbolically by e_H * e_K = e_<H,K>
  over the decomposition groups of `oracle_lattice`, with the join
  `subgroup_join`; circdist built e_n from it before each factor became
  one averaging pass over the cosets of D;
* `idempotent_e_n` sums c_H e_H over that expansion by repeated
  group-ring addition and checks c*c == d*c with the same pairwise loop;
* `annihilator_In_formula` builds each row sigma_g * d * e_n as a
  `Fraction` product and takes the integer left kernel of the mu rows at
  every level, as circdist did before I_n became the saturation of the
  coset rows of the minimal decomposition groups;
* `project_annihilator` maps every nonzero entry through `canon_rep`;
* `project` pushes each (rep, Fraction) term through `canon_rep` and adds
  the images in a dict;
* `section_lift` groups the units of the upper level by the `canon_rep` of
  their images, two `canon_rep`s per unit, and picks one preimage per term;
* `fft` is the mixed-radix transform of `groupring._fft` over its own
  table of roots of unity (`roots`, by cos and sin), as it was before the
  transform read the embeddings' table `cyclotomic._zeta_powers`;
* `frame` finds the exponents of -1 by listing all of G_n along the walk
  of its generators and reading the flat index of n - 1, as
  `groupring._frame` did before it wrote them down per axis;
* `coordinates` maps each unit to the Kronecker index of its class in one
  dict of phi(n) entries, `rep_keys` reads that dict at each
  representative, `character_frame` sorts the plus representatives by it
  and `inverse_keys` reads it at each inverse, as circdist did before
  `groupring._coordinates` became one table of walk positions, keys by
  position and fold.
"""

from fractions import Fraction
from math import cos, pi, sin
from operator import mul as times

from circdist import intlinalg, polys
from circdist.groupring import (IdealLattice, LevelError, _cyclic_factors,
                                _frame, _unit_positions, _walk, canon_rep,
                                e_subgroup, grelt, group_reps, sigma, units)
from oracle_lattice import decomposition_group


def e_n_expansion(n):
    """e_n written as a combination of subgroup idempotents e_H: returns a
    dict {subgroup members (frozenset): coefficient}.  Uses
    e_H * e_K = e_<H,K> to multiply the (1 - e_D) factors symbolically."""
    whole = frozenset(group_reps(n, True))
    triv = frozenset({1})
    terms = {triv: Fraction(1)}
    for ell in polys.prime_factors(n):
        d = frozenset(decomposition_group(n, ell))
        new = {}
        for h, c in terms.items():
            new[h] = new.get(h, Fraction(0)) + c
            hk = subgroup_join(n, h, d)
            new[hk] = new.get(hk, Fraction(0)) - c
        terms = {h: c for h, c in new.items() if c}
    if len(polys.prime_factors(n)) == 1:
        terms[whole] = terms.get(whole, Fraction(0)) + 1
        terms = {h: c for h, c in terms.items() if c}
    return terms


def subgroup_join(n, h, k):
    """Subgroup of G_n^+ generated by two subgroups (given as rep sets).

    G_n^+ is abelian, so the join is the product HK: the union of the
    cosets xH for x in K.  Products of units are units, so each one's
    representative is min(p, n - p) with no unit check."""
    members = set(h)
    for x in k:
        if x not in members:
            for y in h:
                p = x * y % n
                members.add(min(p, n - p))
    return frozenset(members)


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
    for h, c in sorted(e_n_expansion(n).items(), key=lambda t: sorted(t[0])):
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
    idx_n = _unit_positions(n, lattice.plus)
    rows = []
    for row in lattice.hnf:
        out = [0] * len(group_reps(n, lattice.plus))
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


def roots(d, sign):
    return tuple(complex(cos(2 * pi * k / d), sign * sin(2 * pi * k / d))
                 for k in range(d))


def fft(x, sign):
    d = len(x)
    if d == 1:
        return x
    if d == 2:
        return [x[0] + x[1], x[0] - x[1]]
    table = roots(d, sign)
    r = polys.prime_factors(d)[0]
    if r == d:
        return [sum(map(times, x, [table[j * k % d] for j in range(d)])) for k in range(d)]
    m = d // r
    subs = [fft(x[j::r], sign) for j in range(r)]
    if r == 2:
        a, b = subs
        b = [w * v for w, v in zip(table, b)]
        return [u + v for u, v in zip(a, b)] + [u - v for u, v in zip(a, b)]
    return [sum(table[j * k % d] * subs[j][k % m] for j in range(r)) for k in range(d)]


def frame(n, plus):
    """`groupring._frame(n, plus)`, with -1 = prod g_i^(t_i) found on the
    walk of G_n."""
    factors = list(_cyclic_factors(n))
    if plus and n > 2:
        flat = _walk(n, factors).index(n - 1)
        t = []
        for _, d in factors:
            flat, e = divmod(flat, d)
            t.append(e)
        j = min((i for i, e in enumerate(t) if e),
                key=lambda i: factors[i][1] & -factors[i][1])
        h, dj = factors[j]
        for i, ((g, d), e) in enumerate(zip(factors, t)):
            if e and i != j:
                h = h * pow(g, next(a for a in range(d) if a * (dj // 2) % d == e), n) % n
        factors[j] = (h, dj // 2)
    return tuple((g, d) for g, d in factors if d > 1)


def coordinates(n, plus):
    """(index, fold): index maps each unit to the Kronecker index of its
    class, from the walk of `groupring._frame(n, plus)`, and fold maps each
    index with digits s_i < R_i to the position of prod g_i^(s_i)."""
    factors = _frame(n, plus)
    keys, radix = [0], 1
    for _, d in factors:
        keys = [k + e * radix for e in range(d) for k in keys]
        radix *= 2 * d - 1
    at = _unit_positions(n, plus)
    pos = list(map(at.__getitem__, _walk(n, factors)))
    if sorted(pos) != list(range(len(group_reps(n, plus)))):
        raise ArithmeticError("the discrete-log walk of level %d is not a bijection" % n)
    key_at = dict(zip(pos, keys))
    full = _walk(n, [(g, 2 * d - 1) for g, d in factors])
    return {u: key_at[i] for u, i in at.items()}, tuple(map(at.__getitem__, full))


def rep_keys(n, plus):
    """Kronecker index of each entry of group_reps(n, plus)."""
    return tuple(map(coordinates(n, plus)[0].__getitem__, group_reps(n, plus)))


def character_frame(n):
    """(orders, walk, conj) with the plus representatives sorted by their
    Kronecker index."""
    orders, conj = tuple(d for _, d in _frame(n, True)), [0]
    for d in orders:
        conj = [i + (-k % d) * len(conj) for k in range(d) for i in conj]
    walk = sorted(group_reps(n, True), key=coordinates(n, True)[0].__getitem__)
    return orders, tuple(walk), tuple(conj)


def inverse_keys(n):
    """Kronecker index of the inverse of each entry of group_reps(n, True)."""
    index = coordinates(n, True)[0]
    return tuple(index[pow(r, -1, n)] for r in group_reps(n, True))
