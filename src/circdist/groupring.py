"""Exact algebra in Z[G_n] and Z[G_n^+] for G_n = (Z/n)^x.

Group elements are reduced representatives a with 1 <= a < n (for the plus
quotient, the smaller of {a, n-a}).  A group-ring element holds one integer
numerator per representative, in ascending order, over one positive
denominator, in the base `cyclotomic._Vector` it shares with CycElt;
canon_rep is needed only where a caller names a group element by any
integer (grelt, coefficient).  Ideal lattices are integer matrices in
canonical Hermite normal form over the same coordinate order, so two
lattices are equal iff their HNF rows are identical.

Products use discrete-log coordinates.  G_n is a product of cyclic groups
<g_i> of orders d_i (one per odd prime-power factor of n, and <-1> x <5>
for 2^a), and G_n^+ the same axes with -1 divided out (`_frame`), so Z[G_n]
and Z[G_n^+] are multi-cyclic convolution algebras.  Writing each element
prod g_i^(e_i) as the Kronecker index sum e_i R_1...R_(i-1) with radix
R_i = 2 d_i - 1 turns a product of two dense operands into one integer
polynomial product (polys.int_poly_mul) of their numerators: the exponents
add digit by digit without a carry, and a fold table sends each product
index to the position of the representative it names.  One cached table per
group, `_coordinates`, names every element by its position in group_reps:
the walk of the generators lists the position at each flat index (checked
to be a bijection onto the group), beside the Kronecker index of each
position and the fold table.  Products with few terms, such as
sigma_g * x, keep the pairwise loop over the same indices, which is cheaper
there; the rule weighs the number of term pairs against the Kronecker
length.  Projections to a lower level or to the plus quotient read one
cached column map per pair of levels.

The characters of G_n^+ live on the same axes and walk (`character_frame`),
and `character_sums` transforms one axis at a time, every line along it in
one pass of `_fft`.  The pass splits the axis order d by its least prime factor
first, as the Cooley-Tukey recursion does, and runs the radix levels bottom
up: leaves of length p, the largest prime factor, are direct sums, and each
level joins r transforms of length m into one of length r m against the
roots of unity `cyclotomic._zeta_powers(r m)`.  A level holds all lines and
sub-transforms in one of two layouts: rows, one per entry, while a row is
at least as long as the transform, so that each twiddle is one scalar; then
contiguous blocks, one per line and sub-transform, with twiddle vectors cut
from the table by slicing.  Each level is a few whole-list maps, so an axis
costs O(mu sum of its radices) for mu = |G_n^+|, and a prime axis O(mu d).
Only the conjugated root tables are cached, no per-level plan.  The sums
and products are those of the per-line recursion, in the same order, so
every double is bit for bit the same.

The idempotent e_n = prod_(l | n) (1 - e_(D_l)) over the decomposition
groups, and the annihilator I_n of the totally positive element
eps_n = (1-z_n)^(1+tau), are both read off one cached table of the cosets
of the D_l (`_e_n_passes`).  A product by e_n, 1 included, is one averaging
pass per D, the product by the idempotent 1 - e_D.  I_n is computed two ways.
Structurally, as the kernel of multiplication by e_n: 0 at a prime power,
else spanned over Q by the coset sums of the minimal D_l (Sinnott, Invent.
Math. 62, 1980), and the rows saturated; their HNF pivots are all 1 (one
subgroup's rows are their own HNF) except at a few levels such as 290 and
1155, the only ones that need kernels.  Analytically, from double-precision
log embeddings, each kernel vector verified exactly (the independent
oracle, on the exponent solver's table of log sigma_k(eps_n), `_log_eps`).

The annihilators of mu_n, -z_n and -z_(2n) are single congruences
sum_a c_a e_a = 0 mod N, written down in canonical HNF by
intlinalg.congruence_hnf, and so are their push-forwards to lower levels,
read off the one pivot above 1.  Decomposition groups are filtered from the
plus representatives by the Frobenius residues <l mod m>; the
stabilization level b_0 tests those residues on the units 1 + k*base alone,
never listing the units of the higher levels.

Each level's lattices and groups are built once per process:
decomposition_group, annihilator_In_formula and _root_annihilator (behind
annihilator_mu and annihilator_Tn, keyed on the root they annihilate) are
lru_caches, as idempotent_e_n, _e_n_passes and stabilization_b0 are,
because the criteria and the exponent solver come back to the same levels
many times.  Every caller shares the one result, which is safe because
each is a value: an IdealLattice refuses attribute assignment and holds its
HNF as a tuple of tuples, and a decomposition group is a tuple.  A check
that must watch a construction run calls the uncached `__wrapped__`.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from math import gcd, log, pi, sin
from operator import add, mul, sub

from . import cyclotomic, intlinalg, polys
from .cyclotomic import (LevelError, PrecisionError, _kept, _power, _set, _Value,
                         _Vector, _numerators, act, one, zeta)
from .polys import units


class HypothesisNotMetError(ValueError):
    """A stated hypothesis (such as b >= b_0) is not satisfied; the check is
    inapplicable rather than failed."""


# ---------------------------------------------------------------------------
# group bookkeeping


@lru_cache(maxsize=None)
def group_reps(n, plus):
    """Ascending representatives of G_n, or of G_n^+ when plus: for n > 2
    the units come in pairs a, n - a, so those below n/2 are the first half."""
    if n <= 2:
        return (1,)
    reps = units(n)
    return reps[:len(reps) // 2] if plus else reps


def canon_rep(a, n, plus):
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError("%d is not a unit mod %d" % (a, n))
    return min(a, n - a) if plus else a


@lru_cache(maxsize=None)
def _unit_positions(n, plus):
    """Position in group_reps(n, plus) of the class of every unit 1 <= u < n
    (in the plus quotient r and n - r share one).  Cached: callers must not
    mutate it."""
    at = {r: i for i, r in enumerate(group_reps(n, plus))}
    if plus and n > 2:
        at.update({n - r: i for r, i in at.items()})
    return at


# ---------------------------------------------------------------------------
# discrete-log coordinates and the convolution product


@lru_cache(maxsize=None)
def _cyclic_factors(n):
    """(generator, order) pairs writing (Z/n)^x as a product of cyclic
    groups: a primitive root of each odd prime-power factor p^k, and -1 and
    5 for 2^a (-1 alone for a = 2), each lifted by CRT to 1 mod the rest."""
    out = []
    for p in polys.prime_factors(n):
        q = p ** polys.order_at(n, p)
        if p == 2:
            gens = ([(q - 1, 2)] if q >= 4 else []) + ([(5, q // 4)] if q >= 8 else [])
        else:
            qs = polys.prime_factors(p - 1)
            g = next(g for g in range(2, p)
                     if all(pow(g, (p - 1) // f, p) != 1 for f in qs))
            if q > p and pow(g, p - 1, p * p) == 1:
                g += p      # g + p generates mod p^k when g fails mod p^2
            gens = [(g, q - q // p)]
        rest = n // q
        for g, d in gens:
            out.append((polys.crt_pair(1, rest, g, q), d))
    return tuple(out)


def _walk(n, factors):
    """The units prod g_i^(e_i) for (generator, order) pairs (g_i, d_i),
    listed by the flat index sum_i e_i d_1...d_(i-1), the first axis
    fastest."""
    walk = [1]
    for g, d in factors:
        pw = [1]
        for _ in range(d - 1):
            pw.append(pw[-1] * g % n)
        walk = [u * w % n for w in pw for u in walk]
    return walk


def _frame(n, plus):
    """(generator, order) pairs writing G_n as a product of cyclic groups,
    `_cyclic_factors(n)`, or G_n^+ when plus: -1 = prod g_i^(t_i) with t_i
    0 or d_i / 2.  Among the axes with t_i != 0 take j with d_j of least
    2-adic valuation, and a_i with a_i d_j / 2 = t_i mod d_i (it exists,
    since d_i / 2 is a multiple of gcd(d_j / 2, d_i)).  Then h = g_j prod
    g_i^(a_i) has h^(d_j / 2) = -1, and G_n^+ is the product of <h> of order
    d_j / 2 and the <g_i>, i != j: e -> (e_i - a_i e_j mod d_i, e_j mod
    d_j / 2) is a homomorphism from G_n (as a_i d_j = 2 t_i = 0 mod d_i)
    with kernel <-1>.  Axes of order 1 are dropped."""
    factors = list(_cyclic_factors(n))
    if plus and n > 2:
        try:
            flat = _walk(n, factors).index(n - 1)
        except ValueError:
            raise ArithmeticError("the generators of level %d miss -1" % n) from None
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


@lru_cache(maxsize=None)
def _coordinates(n, plus):
    """(walk, keys, fold): the one coordinate table of Z[G_n] (Z[G_n^+]),
    by position in group_reps(n, plus).

    With generators g_i of orders d_i from `_frame(n, plus)`, the element
    prod g_i^(e_i), 0 <= e_i < d_i, has flat index sum e_i d_(i-1)...d_1
    and Kronecker index sum e_i R_(i-1)...R_1 in radix R_i = 2 d_i - 1, so
    the exponents of a product of two elements add digit by digit without a
    carry.  walk[f] is the position of the element at flat index f, keys[i]
    the Kronecker index of position i, and fold maps every index with
    digits s_i < R_i to the position of prod g_i^(s_i).  All three come
    from walking the generators, which must reach each class once (checked)."""
    factors = _frame(n, plus)
    keys, radix = [0], 1
    for _, d in factors:
        keys = [k + e * radix for e in range(d) for k in keys]
        radix *= 2 * d - 1
    at = _unit_positions(n, plus)
    walk = tuple(map(at.__getitem__, _walk(n, factors)))
    if sorted(walk) != list(range(len(group_reps(n, plus)))):
        raise ArithmeticError("the discrete-log walk of level %d is not a bijection" % n)
    full = _walk(n, [(g, 2 * d - 1) for g, d in factors])
    return (walk, tuple(k for _, k in sorted(zip(walk, keys))),
            tuple(map(at.__getitem__, full)))


@lru_cache(maxsize=None)
def _inverse_keys(n):
    """Kronecker index of the inverse of each entry of group_reps(n, True):
    the terms (_inverse_keys(n)[i], v_i) are sum v_i sigma_(r_i^-1)."""
    keys, at = _coordinates(n, True)[1], _unit_positions(n, True)
    return tuple(keys[at[pow(r, -1, n)]] for r in group_reps(n, True))


# a product whose operands have s and t terms takes the pairwise loop when
# s * t is at most this many times the Kronecker length L: the loop costs
# in proportion to s * t, the convolution to about L; the crossover measured
# 3-8.4 L at levels 35 to 729 (L < 1000) and 6.9-16.3 L at 1001 to 2187
_LOOP_PER_KRONECKER = 5


def _kronecker(terms):
    """Dense coefficient list of (Kronecker index, int) terms."""
    out = [0] * (max(k for k, _ in terms) + 1)
    for k, v in terms:
        out[k] = v
    return out


def _convolve(n, plus, a, b):
    """Product of two nonzero elements of Z[G_n] (Z[G_n^+]), given as
    (Kronecker index, int) terms: one integer polynomial product of their
    Kronecker forms, folded back.  Returns the integer coefficient at each
    position of group_reps(n, plus)."""
    fold = _coordinates(n, plus)[2]
    pa = _kronecker(a)
    prod = polys.int_poly_mul(pa, pa if a is b else _kronecker(b))
    out = [0] * len(group_reps(n, plus))
    for f, v in zip(fold, prod):
        if v:
            out[f] += v
    return out


def _product(n, plus, a, b):
    """Integer coefficient at each position of group_reps(n, plus) of the
    product of two elements of Z[G_n] (Z[G_n^+]) given as (Kronecker index,
    int) terms.  Sparse operands, and any product by a one-term element such
    as a sigma_g (s <= mu <= L), take the pairwise loop; the rest take one
    convolution (`_convolve`)."""
    fold = _coordinates(n, plus)[2]
    if len(a) * len(b) <= _LOOP_PER_KRONECKER * len(fold):
        prod = [0] * len(group_reps(n, plus))
        for ka, va in a:
            for kb, vb in b:
                prod[fold[ka + kb]] += va * vb
        return prod
    return _convolve(n, plus, a, b)


# ---------------------------------------------------------------------------
# characters


@lru_cache(maxsize=None)
def character_frame(n):
    """(orders, walk, conj): G_n^+ as a product of cyclic groups of the
    given orders (`_frame`), for `character_sums`.  walk lists the plus
    representative at each flat index sum_i e_i d_1...d_(i-1), read off the
    walk of `_coordinates`, which checked it; conj maps each flat index to
    that of its negated exponents: the inverse of the element there, and
    the conjugate of the character there."""
    orders, conj = tuple(d for _, d in _frame(n, True)), [0]
    for d in orders:
        conj = [i + (-k % d) * len(conj) for k in range(d) for i in conj]
    reps = group_reps(n, True)
    return orders, tuple(reps[i] for i in _coordinates(n, True)[0]), tuple(conj)


@lru_cache(maxsize=None)
def _roots(d, sign):
    """e^(sign 2 pi i k / d) for k < d: the one table
    `cyclotomic._zeta_powers(d)`, conjugated for sign -1."""
    roots = cyclotomic._zeta_powers(d)[0]
    return roots if sign > 0 else tuple(z.conjugate() for z in roots)


def _blocks(rows):
    """The columns of rows, each listed in full, one after the other."""
    flat = [None] * (len(rows) * len(rows[0]))
    for k, row in enumerate(rows):
        flat[k::len(rows)] = row
    return flat


def _fft(x, sign, width=1):
    """out[k] = sum_j e^(sign 2 pi i j k / d) x[j] on each of the width
    lines of length d stored axis-major in x (entry j of line i at
    x[j * width + i]), returned line-major (entry k of line i at
    out[i * d + k]); for width 1 both are the plain list.

    Mixed radix, split by the least prime factor r of d first
    (Cooley-Tukey), run bottom-up over all lines at once.  The leaves of
    length p, the largest prime factor of d, are summed directly,
    sum(map(mul, x, row)), or x0 + x1, x0 - x1 for p = 2; each level above
    joins r transforms sub_j of length m into one of length r m,
    out[k] = sum_j roots[j k] sub_j[k mod m], or u + w v, u - w v with w v
    computed once for r = 2, roots being `_roots(r m, sign)`.  These are
    the sums, products and roots of the per-line recursion, in its order,
    so the doubles are the same; a product the recursion repeats is
    computed once (x0 roots[0] in each leaf row, roots[0] sub_0[c] at
    every k = c mod m).  A level is held as rows, one per entry, while a
    row (lines times sub-transforms) is at least as long as the
    transform, so each twiddle is a scalar; after that as blocks, one per
    line and sub-transform, with twiddle vectors sliced from the table.
    Cost O(len(x) (r_1 + ... + r_k)) for d = r_1 ... r_k in primes."""
    d = len(x) // width
    if d < 3:
        return list(x) if d == 1 else [v for a, b in zip(x, x[width:]) for v in (a + b, a - b)]
    radices = [p for p in polys.prime_factors(d) for _ in range(polys.order_at(d, p))]
    size = radices.pop()
    n = len(x) // size        # lines times sub-transforms at this level
    rows = None
    if size == 2:
        rows = [list(map(add, x, x[n:])), list(map(sub, x, x[n:]))]
    else:
        roots = _roots(size, sign)
        xs = [x[j * n:(j + 1) * n] for j in range(size)]
        if n >= size:
            x0 = list(map(mul, xs[0], repeat(roots[0])))
            rows = [list(map(sum, zip(x0, *[map(mul, xs[j], repeat(roots[j * k % size]))
                                            for j in range(1, size)])))
                    for k in range(size)]
        else:
            flat = [sum(map(mul, c, [roots[j * k % size] for j in range(size)]))
                    for c in zip(*xs) for k in range(size)]
    for r in reversed(radices):
        m, size, n = size, size * r, n // r
        roots = _roots(size, sign)
        if rows and n < size:
            rows, flat = None, _blocks(rows)
        if rows and r == 2:
            plus, minus = [], []
            for w, row in zip(roots, rows):
                b = list(map(mul, repeat(w), islice(row, n, None)))
                plus.append(list(map(add, row, b)))
                minus.append(list(map(sub, row, b)))
            rows = plus + minus
        elif rows:
            out = [None] * size
            for c, row in enumerate(rows):
                p0 = list(map(mul, repeat(roots[0]), row[:n]))
                subs = [row[j * n:(j + 1) * n] for j in range(1, r)]
                for k in range(c, size, m):
                    out[k] = list(map(sum, zip(p0, *[map(mul, repeat(roots[j * k % size]), s)
                                                     for j, s in enumerate(subs, 1)])))
            rows = out
        elif r == 2:
            half = n * m
            b = list(map(mul, roots[:m] * n, islice(flat, half, None)))
            plus, minus = list(map(add, flat, b)), list(map(sub, flat, b))
            flat = []
            for q in range(0, half, m):
                flat += plus[q:q + m]
                flat += minus[q:q + m]
        else:
            subs = [list(map(mul, repeat(roots[0]), flat[:n * m]))]
            subs += [flat[j * n * m:(j + 1) * n * m] for j in range(1, r)]
            prods = []
            for j, s in enumerate(subs):
                rep = []
                for q in range(0, n * m, m):
                    rep += s[q:q + m] * r
                prods.append(map(mul, (roots * j)[::j] * n, rep) if j else rep)
            flat = list(map(sum, zip(*prods)))
    return flat if rows is None else _blocks(rows)


def character_sums(n, vals, sign=-1):
    """sum_g f(g) chi_k(g) for every character chi_k of G_n^+, with f given
    by its values along `character_frame(n)`'s walk and the result listed
    by the same flat index k: chi_k is prod e^(sign 2 pi i k_i e_i / d_i)
    on the flat index e.  sign = 1 gives mu times the inverse transform.
    One `_fft` pass per axis, the slowest first, over all its lines at
    once; the pass leaves that axis the fastest.  Returns a new list;
    raises ValueError unless there is one value per element of G_n^+."""
    orders, walk, _ = character_frame(n)
    if len(vals) != len(walk):
        raise ValueError("%d values for the %d elements of G_%d^+" % (len(vals), len(walk), n))
    vals = list(vals)
    for d in reversed(orders):
        vals = _fft(vals, sign, len(vals) // d)
    return vals


# ---------------------------------------------------------------------------
# group-ring elements


class GroupRingElt(_Vector):
    """Element of Q[G_n] (or Q[G_n^+] when plus) in the base
    `cyclotomic._Vector`: nums[i] / den is the coefficient of the i-th
    entry of group_reps(level, plus).  ``coeffs`` is the sorted tuple of
    nonzero (rep, Fraction) pairs, built on first use."""

    __slots__ = ("level", "plus", "nums", "den", "_coeffs")

    def __init__(self, level, plus, nums, den):
        _set(self, "level", level)
        _set(self, "plus", plus)
        _set(self, "nums", nums)
        _set(self, "den", den)

    @classmethod
    def _from_ints(cls, level, plus, nums, den):
        """Element nums / den (den > 0, one numerator per representative),
        normalized."""
        x = object.__new__(cls)
        _set(x, "level", level)
        _set(x, "plus", plus)
        return x._put(nums, den)

    def _head(self):
        return self.level, self.plus

    def __hash__(self):
        return hash((self.level, self.plus, self.nums, self.den))

    @property
    @_kept
    def coeffs(self):
        reps, den = group_reps(self.level, self.plus), self.den
        return tuple((reps[i], Fraction(v, den)) for i, v in self.nonzero())

    def coefficient(self, a):
        i = _unit_positions(self.level, self.plus)[canon_rep(a, self.level, self.plus)]
        return Fraction(self.nums[i], self.den)

    def augmentation(self):
        return Fraction(sum(self.nums), self.den)

    def _terms(self):
        """(Kronecker index, numerator) of each nonzero coefficient."""
        keys = _coordinates(self.level, self.plus)[1]
        return [(keys[i], v) for i, v in self.nonzero()]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.level != other.level or self.plus != other.plus:
            raise LevelError("group-ring mismatch")
        return other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check(other)
        a = self._terms()
        prod = _product(self.level, self.plus, a, a if other is self else other._terms())
        return GroupRingElt._from_ints(self.level, self.plus, prod, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("Z[G] has no general inverse: exponent %d < 0" % k)
        return _power(self, k) if k else identity(self.level, self.plus)

    # -- structure maps ------------------------------------------------------

    def project(self, to_level=None, to_plus=None):
        """Push coefficients along G_m -> G_n and/or G -> G^+."""
        n = self.level if to_level is None else to_level
        plus = self.plus if to_plus is None else to_plus
        if self.level % n:
            raise LevelError("%d does not divide %d" % (n, self.level))
        if self.plus and not plus:
            raise LevelError("cannot lift from the plus quotient")
        return GroupRingElt._from_ints(n, plus, _push(self.nums, self.level, n, self.plus, plus),
                                       self.den)

    def to_vector(self):
        den = self.den
        return [Fraction(v, den) for v in self.nums]

    def act_on(self, x, assume_tau_fixed=False):
        """Multiplicative action x^self; coefficients must be integers.

        A plus-quotient exponent acts through either lift, which is only
        well defined on tau-fixed elements; that is checked unless the
        caller vouches for it.
        """
        if x.level != self.level:
            raise LevelError("level mismatch")
        if self.den != 1:
            raise ValueError("exponent has non-integer coefficients")
        if self.plus and not assume_tau_fixed:
            if not cyclotomic.is_tau_fixed(x):
                raise ValueError("plus-quotient exponent on a non-tau-fixed element")
        return cyclotomic.apply_integer_exponents(
            x, zip(group_reps(self.level, self.plus), self.nums))

    def scaled_integral(self):
        """(d, d*self) with d the smallest positive integer clearing denominators."""
        return self.den, GroupRingElt(self.level, self.plus, self.nums, 1)


def grelt(level, plus, coeffs):
    """Normalized constructor from a {rep: coefficient} mapping; keys are
    any integers naming units mod level, and zero coefficients are dropped."""
    at = _unit_positions(level, plus)
    vec = [0] * len(group_reps(level, plus))
    for r, c in coeffs.items():
        q = Fraction(c)
        if q:
            vec[at[canon_rep(r, level, plus)]] += q
    return from_vector(level, plus, vec)


def identity(n, plus):
    return grelt(n, plus, {1: 1})


def sigma(n, a, plus=False):
    return grelt(n, plus, {a: 1})


def from_vector(n, plus, vec):
    """Element with coefficient vec[i] at the i-th entry of group_reps(n, plus)."""
    return GroupRingElt(n, plus, *_numerators(vec, len(group_reps(n, plus))))


def subgroup_sum(n, plus, members):
    return grelt(n, plus, {r: 1 for r in members})


def e_subgroup(n, plus, members):
    return subgroup_sum(n, plus, members) * Fraction(1, len(members))


def group_sum(n, plus):
    return subgroup_sum(n, plus, group_reps(n, plus))


def gr_to_json(x):
    return {"level": x.level, "plus": x.plus,
            "coeffs": {str(r): cyclotomic._frac_str(c) for r, c in x.coeffs}}


def gr_from_json(obj):
    return grelt(int(obj["level"]), bool(obj["plus"]),
                 {int(r): Fraction(s) for r, s in obj["coeffs"].items()})


# ---------------------------------------------------------------------------
# decomposition groups and the idempotent e_n


def _frobenius(n, ell):
    """(m, frob) for the prime ell | n, n = ell^a m with ell not dividing m:
    frob is the set of residues of <ell mod m> in (Z/m)^x, {0} when m = 1.
    ValueError unless ell is a prime, LevelError unless it divides n."""
    if not polys.is_probable_prime(ell):
        raise ValueError("%d is not a prime" % ell)
    if n % ell:
        raise LevelError("%d does not divide %d" % (ell, n))
    m = n // ell ** polys.order_at(n, ell)
    frob, f = {1 % m}, ell % m
    while f not in frob:
        frob.add(f)
        f = f * ell % m
    return m, frob


@lru_cache(maxsize=None)
def decomposition_group(n, ell):
    """Decomposition subgroup of the prime ell | n in G_n^+, as a sorted
    tuple of plus representatives: via CRT it is the image of
    (Z/ell^a)^x x <ell mod m> for n = ell^a m, so the plus class {r, n - r}
    is a member when r or -r is a Frobenius residue mod m."""
    m, frob = _frobenius(n, ell)
    return tuple(r for r in group_reps(n, True) if r % m in frob or -r % m in frob)


@lru_cache(maxsize=None)
def _e_n_passes(n):
    """((D, cosets), ...): each distinct decomposition group D of a prime
    l | n with its cosets in G_n^+, as positions in group_reps(n, True),
    each listed from its least member g: walking the representatives
    upwards, the first one not yet covered lists g D.  () at a prime power,
    where e_n = 1.  D_l is the preimage in G_n^+ of +-<l mod m>, m the
    prime-to-l part of n (`decomposition_group`); l is a unit mod m, so D_l
    is a subgroup and the walk lists its cosets, which are disjoint exactly
    when their number times |D| is mu (checked: ArithmeticError otherwise).
    The pass over them in `_times_e_n` is then the product by the
    idempotent 1 - e_D, and a product of commuting idempotents is
    idempotent, so e_n is certified by its construction, with no product."""
    primes = polys.prime_factors(n)
    if len(primes) < 2:
        return ()
    reps, at = group_reps(n, True), _unit_positions(n, True)
    out = []
    for members in dict.fromkeys(decomposition_group(n, ell) for ell in primes):
        marked = [False] * len(reps)
        cosets = []
        for i, g in enumerate(reps):
            if not marked[i]:
                coset = tuple(at[g * x % n] for x in members)
                for j in coset:
                    marked[j] = True
                cosets.append(coset)
        if len(cosets) * len(members) != len(reps):
            raise ArithmeticError("a decomposition group of level %d has overlapping cosets" % n)
        out.append((members, tuple(cosets)))
    return tuple(out)


def _times_e_n(n, nums, den):
    """x e_n for x = nums / den in Q[G_n^+] (one numerator per entry of
    group_reps(n, True), den > 0): each entry (D, cosets) of
    `_e_n_passes(n)`, k = |D|, is one pass x -> x (1 - e_D), which puts
    (k x_g - sum_(h in gD) x_h) / k at each g, on the numerators."""
    nums = list(nums)
    for members, cosets in _e_n_passes(n):
        k = len(members)
        for coset in cosets:
            s = sum(map(nums.__getitem__, coset))
            for j in coset:
                nums[j] = k * nums[j] - s
        den *= k
    return GroupRingElt._from_ints(n, True, nums, den)


@lru_cache(maxsize=None)
def idempotent_e_n(n):
    """The idempotent of Q[G_n^+] cutting out the span of eps_n: the product
    of (1 - e_D) over the decomposition groups D of the primes dividing n,
    1 when n is a prime power, applied to 1 by the coset passes
    (`_times_e_n`); idempotent by construction (`_e_n_passes`)."""
    if n < 2:
        raise LevelError("level must be >= 2")
    return _times_e_n(n, [1] + [0] * (len(group_reps(n, True)) - 1), 1)


# ---------------------------------------------------------------------------
# ideal lattices


class IdealLattice(_Value):
    """Finitely generated subgroup of the group ring, rows in canonical HNF
    over the fixed coordinate order (ascending representatives): ``hnf`` is
    a tuple of tuples of ints."""

    __slots__ = ("level", "plus", "hnf")

    @classmethod
    def from_rows(cls, level, plus, rows):
        return cls(level, plus, tuple(tuple(r) for r in intlinalg.hnf(rows)))

    @property
    def rank(self):
        return len(self.hnf)

    def contains(self, x):
        if isinstance(x, GroupRingElt):
            self._check(x)
            if x.den != 1:
                return False
            vec = list(x.nums)
        else:
            vec = list(x)
            ncols = len(group_reps(self.level, self.plus))
            if len(vec) != ncols:
                raise ValueError("vector of length %d for a lattice with %d columns"
                                 % (len(vec), ncols))
        return intlinalg.hnf_contains(self.hnf, vec)

    _check = GroupRingElt._check

    def contains_lattice(self, other):
        self._check(other)
        return all(self.contains(list(row)) for row in other.hnf)

    def basis_elements(self):
        return [from_vector(self.level, self.plus, row) for row in self.hnf]

    def scaled(self, k):
        """k times the lattice, for an integer k >= 1: each HNF row times k
        is again in canonical HNF.  ValueError for k < 1, whose rows would
        not be (a negative pivot, or a zero row counted in the rank)."""
        if k < 1:
            raise ValueError("scale factor %d is not a positive integer" % k)
        return IdealLattice(self.level, self.plus,
                            tuple(tuple(k * v for v in row) for row in self.hnf))

    def index_in(self, other):
        self._check(other)
        return intlinalg.lattice_index(self.hnf, other.hnf)

    def to_json(self):
        return {"level": self.level, "plus": self.plus,
                "hnf": [list(r) for r in self.hnf]}


def eps_n(n):
    """The totally positive cyclotomic element (1 - z_n)^(1 + tau)."""
    x = one(n) - zeta(n)
    return x * act(cyclotomic.tau(n), x)


@lru_cache(maxsize=None)
def _log_eps(n):
    """log sigma_k(eps_n) = 2 log(2 sin(pi k / n)) for every residue k mod n
    (entry 0, never a unit, is 0); k and n - k hold the same double, read
    at k <= n / 2 where the sine has no cancellation."""
    out = [0.0] * n
    for k in range(1, n // 2 + 1):
        out[k] = out[n - k] = 2.0 * log(2.0 * sin(pi * k / n))
    return tuple(out)


@lru_cache(maxsize=None)
def annihilator_In_formula(n):
    """Annihilator of eps_n in Z[G_n^+], the integer kernel of e_n, in HNF:
    one row per coset of each minimal D_l (a coset sum of a larger D_l is a
    sum of coset sums of a smaller one), the cosets that also apply e_n
    (`_e_n_passes`), saturated; 0 at a prime power where e_n = 1.  The rank
    is certified as mu (1 - e_n(1)), the number of characters e_n kills,
    read from idempotent_e_n."""
    if n < 2:
        raise LevelError("level must be >= 2")
    mu = len(group_reps(n, True))
    passes = _e_n_passes(n)
    rows = []
    for h, cosets in passes:
        if not any(len(k) < len(h) and set(k) <= set(h) for k, _ in passes):
            for coset in cosets:
                row = [0] * mu
                for j in coset:
                    row[j] = 1
                rows.append(row)
    rows = intlinalg.saturate(rows, mu)
    e = idempotent_e_n(n)
    killed, rest = divmod(mu * (e.den - e.nums[0]), e.den)
    if rest:
        raise ArithmeticError("e_%d(1) = %d/%d gives a fractional count of "
                              "killed characters" % (n, e.nums[0], e.den))
    if len(rows) != killed:
        raise ArithmeticError("I_%d has rank %d, but e_n kills %d characters"
                              % (n, len(rows), killed))
    return IdealLattice(n, True, tuple(map(tuple, rows)))


# the largest phi(n) whose annihilator annihilator_In_oracle computes
_ORACLE_MAX_PHI = 16


def annihilator_In_oracle(n):
    """Independent construction of the annihilator of eps_n: the rational
    kernel of the double-precision log embedding matrix, each kernel vector
    verified exactly by eps_n^v = 1 in the field, then saturated.  Never
    accepts unverified numeric output: raises PrecisionError at the first
    vector that fails the check."""
    if n < 2:
        raise LevelError("level must be >= 2")
    if polys.euler_phi(n) > _ORACLE_MAX_PHI:
        raise ValueError("phi(%d) exceeds the configured oracle bound %d" % (n, _ORACLE_MAX_PHI))
    reps = group_reps(n, True)
    eps = eps_n(n)
    leps = _log_eps(n)
    rows = [[leps[c * g % n] for g in reps] for c in reps]
    candidates = []
    for vec in _float_kernel(rows):
        ivec = _numerators([Fraction(v).limit_denominator(4096) for v in vec], len(reps))[0]
        if from_vector(n, True, ivec).act_on(eps, assume_tau_fixed=True) != one(n):
            raise PrecisionError("oracle kernel vector failed eps_%d^v = 1" % n)
        candidates.append(ivec)
    sat = intlinalg.saturate(candidates, len(reps))
    return IdealLattice(n, True, tuple(tuple(r) for r in sat))


def _float_kernel(rows):
    """Kernel basis of a real matrix by Gauss-Jordan in floats, a column
    whose largest remaining entry is below 1e-8 counting as free; returned
    in the canonical free-column parametrization."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    piv_cols = []
    r = 0
    for c in range(ncols):
        best, bi = None, None
        for i in range(r, m):
            v = abs(a[i][c])
            if best is None or v > best:
                best, bi = v, i
        if best is None or best < 1e-8:
            continue
        a[r], a[bi] = a[bi], a[r]
        pivot = a[r][c]
        a[r] = [v / pivot for v in a[r]]
        for i in range(m):
            if i != r:
                f = a[i][c]
                if f:
                    a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(piv_cols):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# annihilators of roots of unity


def _root_exponents(n, root):
    """(exps, order) for the root of unity x named by root: "mu" for z_n,
    "T" for -z_n, "T*" for -z_(2n) (the same as "T" when n is even).  x has
    order `order`, and sigma_a(x) = x^exps[i] for the i-th unit a of G_n, so
    c annihilates x iff sum_i c_i exps[i] = 0 mod order."""
    reps = group_reps(n, False)
    if root == "mu":
        L, k0, targets = n, 1, reps
    elif root == "T*" and n % 2:
        # -z_(2n) = z_(4n)^(2n+2); sigma_a acts through the unit mod 2n over a
        L, k0 = 4 * n, 2 * n + 2
        targets = [2 * n + 2 * (a if a % 2 else a + n) for a in reps]
    else:
        # -z_n = z_(2n)^(n+2)
        L, k0 = 2 * n, n + 2
        targets = [n + 2 * a for a in reps]
    # solve k0 e = t (mod L): each target is a power of x by construction
    d = gcd(k0, L)
    order = L // d
    inv = pow(k0 // d, -1, order)
    exps = []
    for t in targets:
        if t % d:
            raise ArithmeticError("discrete log does not exist")
        exps.append(t // d * inv % order)
    return exps, order


@lru_cache(maxsize=None)
def _root_annihilator(n, root):
    """Annihilator in Z[G_n] of the root named as in `_root_exponents`;
    callers pass "T*" at odd n only, so each lattice has one key."""
    if n < 2:
        raise LevelError("level must be >= 2")
    exps, order = _root_exponents(n, root)
    return IdealLattice(n, False, tuple(map(tuple, intlinalg.congruence_hnf(exps, order))))


def annihilator_Tn(n, starred=False):
    """Annihilator in Z[G_n] of -z_n; with starred and odd n, the annihilator
    of -z_(2n) carried over through Q(2n) = Q(n)."""
    return _root_annihilator(n, "T*" if starred and n % 2 else "T")


def annihilator_mu(n):
    """Annihilator in Z[G_n] of the full group mu_n (equivalently of z_n)."""
    return _root_annihilator(n, "mu")


def project_annihilator(m, n, lattice):
    """Image of a lattice at level m under the coefficient push-forward to
    level n (n | m), returned in canonical HNF.

    A full-rank lattice whose HNF has at most one pivot D > 1, at column k,
    has a cyclic quotient: it is {c : c . w = 0 mod D} with w_k = 1,
    w_i = -h_ik for the rows above k and w_i = 0 below.  Its image is the
    single congruence sum_f y_f w_(i_f) = 0 mod g, for any index i_f in
    fiber f of the push and g the gcd of D and every w_i - w_(i_f), written
    down by intlinalg.congruence_hnf; the mu and T_n annihilators have this
    shape.  Other lattices push their rows and take their HNF."""
    if lattice.level != m:
        raise LevelError("lattice level mismatch")
    if m % n:
        raise LevelError("%d does not divide %d" % (n, m))
    plus, rows = lattice.plus, lattice.hnf
    big = [i for i, row in enumerate(rows) if row[i] != 1]
    if len(rows) != len(group_reps(m, plus)) or len(big) > 1:
        return IdealLattice.from_rows(n, plus, [_push(row, m, n, plus, plus) for row in rows])
    k = big[0] if big else 0
    g = rows[k][k]
    w = [-row[k] % g for row in rows[:k]] + [1 % g] + [0] * (len(rows) - k - 1)
    first = {}
    for f, v in zip(_push_columns(m, n, plus, plus), w):
        g = gcd(g, v - first.setdefault(f, v))
    coeffs = [first[f] for f in range(len(first))]
    return IdealLattice(n, plus, tuple(map(tuple, intlinalg.congruence_hnf(coeffs, g))))


@lru_cache(maxsize=None)
def _push_columns(m, n, plus, to_plus):
    """Position in group_reps(n, to_plus) (n | m) of the image of each entry
    of group_reps(m, plus)."""
    at = _unit_positions(n, to_plus)
    return tuple(at[r % n if n > 1 else 1] for r in group_reps(m, plus))


def _push(nums, m, n, plus, to_plus):
    """Coefficient vector at level n of the push-forward of nums at level m."""
    out = [0] * len(group_reps(n, to_plus))
    for j, v in zip(_push_columns(m, n, plus, to_plus), nums):
        if v:
            out[j] += v
    return out


# ---------------------------------------------------------------------------
# the finite-level image claim


@lru_cache(maxsize=None)
def stabilization_b0(m, p, b_max=12):
    """Smallest b such that every prime divisor of the tower levels m*p^c
    has full decomposition group above the level m*p^b, detected by
    containment at two consecutive higher levels.  The Galois group of the
    level-lev field over the level-base one (base = m*p^b) is the set of
    plus classes of the units 1 + k*base, k < lev/base; each is tested
    against the Frobenius residues of ell (`_frobenius`)."""
    if not polys.is_probable_prime(p):
        raise ValueError("p = %d is not a prime" % p)
    ells = sorted(set(polys.prime_factors(m)) | {p})
    for b in range(b_max + 1):
        base = m * p ** b
        if all(x % r in frob or -x % r in frob
               for ell in ells for lev in (base * p, base * p * p)
               for r, frob in [_frobenius(lev, ell)]
               for x in range(1, lev, base) if gcd(x, lev) == 1):
            return b
    raise PrecisionError("no stabilization level found below b = %d" % b_max)


def image_is_p_times_I(m, p, b):
    """True iff the push-forward of the annihilator lattice at level
    m*p^(b+1) equals p times the annihilator lattice at level m*p^b.
    Requires p | m and b >= b_0 (decomposition-group stabilization)."""
    if m % p:
        raise HypothesisNotMetError("p = %d does not divide m = %d" % (p, m))
    b0 = stabilization_b0(m, p)
    if b < b0:
        raise HypothesisNotMetError(
            "hypothesis not met: b = %d is below the stabilization level b_0 = %d" % (b, b0))
    hi = annihilator_In_formula(m * p ** (b + 1))
    lo = annihilator_In_formula(m * p ** b)
    proj = project_annihilator(m * p ** (b + 1), m * p ** b, hi)
    return proj == lo.scaled(p)
