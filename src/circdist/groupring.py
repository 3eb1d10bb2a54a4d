"""Exact algebra in Z[G_n] and Z[G_n^+] for G_n = (Z/n)^x.

Group elements are reduced representatives a with 1 <= a < n (for the plus
quotient, the smaller of {a, n-a}).  A group-ring element holds one integer
numerator per representative, in ascending order, over one positive
denominator, normalized as CycElt is; canon_rep is needed only where a
caller names a group element by any integer (grelt, coefficient).  Ideal
lattices are integer matrices in canonical Hermite normal form over the same
coordinate order, so two lattices are equal iff their HNF rows are identical.

Products use discrete-log coordinates.  G_n is a product of cyclic groups
<g_i> of orders d_i (one per odd prime-power factor of n, and <-1> x <5>
for 2^a), so Z[G_n] is a multi-cyclic convolution algebra.  Writing each
unit prod g_i^(e_i) as the Kronecker index sum e_i R_1...R_(i-1) with radix
R_i = 2 d_i - 1 turns a product of two dense operands into one integer
polynomial product (polys.int_poly_mul) of their numerators: the exponents
add digit by digit without a carry, and a cached fold table sends each
product index to the position of the representative it names (r and n - r
together in the plus quotient, where the plus representatives lift to
themselves).  The coordinates are built per level by walking the
generators, with a check that the walk is a bijection onto the units.
Products with few terms, such as sigma_g * x, keep the pairwise loop over
the same indices, which is cheaper there; the rule weighs the number of
term pairs against the Kronecker length.  The idempotency certificate of
e_n is the product e_n * e_n under the same rule.  Projections to a lower
level or to the plus quotient read one cached column map per pair of
levels.

The annihilator of the totally positive element eps_n = (1-z_n)^(1+tau) is
computed two ways.  Structurally, as the kernel of multiplication by the
decomposition-group idempotent e_n: 0 at a prime power, else spanned over Q
by the coset sums of the minimal decomposition groups D_l (Sinnott, Invent.
Math. 62, 1980), each coset marked off from its least member, and the rows
saturated; their HNF pivots are all 1 (one subgroup's rows are their own
HNF) except at a few levels such as 290 and 1155, the only ones that need
kernels.  Analytically, from double-precision log embeddings, each kernel
vector verified exactly (the independent oracle).

The annihilators of mu_n, -z_n and -z_(2n) are single congruences
sum_a c_a e_a = 0 mod N, written down in canonical HNF by
intlinalg.congruence_hnf, and so are their push-forwards to lower levels,
read off the one pivot above 1.  Decomposition groups are filtered from the
plus representatives by the Frobenius residues <l mod m>; the
stabilization level b_0 tests those residues on the units 1 + k*base alone,
never listing the units of the higher levels.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import cos, gcd, lcm, log, pi, sin
from operator import mul

from . import cyclotomic, intlinalg, polys
from .cyclotomic import LevelError, PrecisionError, act, one, zeta


class HypothesisNotMetError(ValueError):
    """A stated hypothesis (such as b >= b_0) is not satisfied; the check is
    inapplicable rather than failed."""


# ---------------------------------------------------------------------------
# group bookkeeping


@lru_cache(maxsize=None)
def units(n):
    """The units 1 <= a < n mod n, ascending: the multiples of the prime
    factors of n sieved out of range(n)."""
    if n <= 2:
        return (1,)
    keep = bytearray(b"\x01") * n
    for p in polys.prime_factors(n):
        keep[::p] = bytes(-(-n // p))
    return tuple(compress(range(n), keep))


@lru_cache(maxsize=None)
def group_reps(n, plus):
    """Ascending representatives of G_n, or of G_n^+ when plus: for n > 2
    the units come in pairs a, n - a, so those below n/2 are the first half."""
    if n <= 2:
        return (1,)
    reps = units(n)
    return reps[:len(reps) // 2] if plus else reps


def canon_rep(a, n, plus):
    if n <= 2:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError("%d is not a unit mod %d" % (a, n))
    return min(a, n - a) if plus else a


def rep_index(n, plus):
    reps = group_reps(n, plus)
    return {r: i for i, r in enumerate(reps)}


@lru_cache(maxsize=None)
def _unit_positions(n, plus):
    """Position in group_reps(n, plus) of the class of every unit 1 <= u < n
    (in the plus quotient r and n - r share one).  Cached: callers must not
    mutate it."""
    at = rep_index(n, plus)
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
        q = p
        while n % (q * p) == 0:
            q *= p
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


@lru_cache(maxsize=None)
def _coordinates(n, plus):
    """(index, fold) for the convolution product in Z[G_n] (Z[G_n^+]).

    With generators g_i of orders d_i from `_cyclic_factors`, the unit
    prod g_i^(e_i), 0 <= e_i < d_i, has Kronecker index sum e_i R_(i-1)...R_1
    in radix R_i = 2 d_i - 1, so the exponents of a product of two units
    add digit by digit without a carry.  index maps each unit to its index;
    fold maps every index with digits s_i < R_i to the position of the unit
    prod g_i^(s_i) in group_reps(n, plus), so r and n - r fold together in
    the plus quotient.  Both come from walking the generators, O(phi(n))
    and O(2^k phi(n)) for k cyclic factors; the walk must reach every unit
    exactly once, which is checked."""
    factors = _cyclic_factors(n)
    keys, radix = [0], 1
    for _, d in factors:
        keys = [k + e * radix for e in range(d) for k in keys]
        radix *= 2 * d - 1
    walk = _walk(n, factors)
    full = _walk(n, [(g, 2 * d - 1) for g, d in factors])
    reps = units(n)
    if len(walk) != len(reps) or set(walk) != set(reps):
        raise ArithmeticError("discrete-log coordinates of level %d are not a "
                              "bijection onto its units" % n)
    return dict(zip(walk, keys)), tuple(map(_unit_positions(n, plus).__getitem__, full))


@lru_cache(maxsize=None)
def _rep_keys(n, plus):
    """Kronecker index of each entry of group_reps(n, plus)."""
    return tuple(map(_coordinates(n, plus)[0].__getitem__, group_reps(n, plus)))


@lru_cache(maxsize=None)
def _inverse_keys(n):
    """Kronecker index of the inverse of each entry of group_reps(n, True):
    the terms (_inverse_keys(n)[i], v_i) are sum v_i sigma_(r_i^-1)."""
    index = _coordinates(n, True)[0]
    return tuple(index[pow(r, -1, n)] for r in group_reps(n, True))


# a product whose operands have s and t terms takes the pairwise loop when
# s * t is at most this many times the Kronecker length L: the loop costs
# in proportion to s * t, the convolution to L, and the measured crossover
# lay between 4.5 L and 6.7 L at levels 49 to 2187
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
    position of group_reps(n, plus).  A plus representative lifts to itself
    in Z[G_n], and the product of the lifts maps to the product in the
    quotient."""
    fold = _coordinates(n, plus)[1]
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
    fold = _coordinates(n, plus)[1]
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
    """(orders, walk, conj): G_n^+ as a product of cyclic groups of the given
    orders, for `character_sums`.

    With g_i and d_i from `_cyclic_factors`, -1 = prod g_i^(t_i) with t_i
    0 or d_i / 2.  Among the axes with t_i != 0 take j with d_j of least
    2-adic valuation, and a_i with a_i d_j / 2 = t_i mod d_i (it exists,
    since d_i / 2 is a multiple of gcd(d_j / 2, d_i)).  Then h = g_j prod
    g_i^(a_i) has h^(d_j / 2) = -1, and G_n^+ is the product of <h> of order
    d_j / 2 and the <g_i>, i != j: e -> (e_i - a_i e_j mod d_i, e_j mod
    d_j / 2) is a homomorphism from G_n (as a_i d_j = 2 t_i = 0 mod d_i)
    with kernel <-1>.  walk lists the plus representative at each flat index of
    these axes (`_walk`) and is checked to be a bijection; conj maps each
    flat index to that of its negated exponents: the inverse of the element
    there, and the conjugate of the character there."""
    factors = list(_cyclic_factors(n))
    if n > 2:
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
    walk = [min(u, n - u) if n > 2 else u for u in _walk(n, factors)]
    if sorted(walk) != list(group_reps(n, True)):
        raise ArithmeticError("the character frame of level %d is not a "
                              "bijection onto G_n^+" % n)
    orders, conj = [d for _, d in factors if d > 1], [0]
    for d in orders:
        conj = [i + (-k % d) * len(conj) for k in range(d) for i in conj]
    return tuple(orders), tuple(walk), tuple(conj)


@lru_cache(maxsize=None)
def _roots(d, sign):
    return tuple(complex(cos(2 * pi * k / d), sign * sin(2 * pi * k / d))
                 for k in range(d))


def _fft(x, sign):
    """out[k] = sum_j e^(sign 2 pi i j k / d) x[j], d = len(x): mixed radix,
    split by the least prime factor r of d (Cooley-Tukey), O(d sum of its
    prime factors); a prime d is summed directly."""
    d = len(x)
    if d == 1:
        return x
    if d == 2:
        return [x[0] + x[1], x[0] - x[1]]
    roots = _roots(d, sign)
    r = polys.prime_factors(d)[0]
    if r == d:
        return [sum(map(mul, x, [roots[j * k % d] for j in range(d)])) for k in range(d)]
    m = d // r
    subs = [_fft(x[j::r], sign) for j in range(r)]
    if r == 2:
        a, b = subs
        b = [w * v for w, v in zip(roots, b)]
        return [u + v for u, v in zip(a, b)] + [u - v for u, v in zip(a, b)]
    return [sum(roots[j * k % d] * subs[j][k % m] for j in range(r)) for k in range(d)]


def character_sums(n, vals, sign=-1):
    """sum_g f(g) chi_k(g) for every character chi_k of G_n^+, with f given
    by its values along `character_frame(n)`'s walk and the result listed
    by the same flat index k: chi_k is prod e^(sign 2 pi i k_i e_i / d_i)
    on the flat index e.  sign = 1 gives mu times the inverse transform.
    One pass per axis, the slowest first: each line along it is transformed
    and the pass leaves that axis the fastest."""
    for d in reversed(character_frame(n)[0]):
        width = len(vals) // d
        vals = [v for line in zip(*[vals[t * width:(t + 1) * width] for t in range(d)])
                for v in _fft(list(line), sign)]
    return vals


# ---------------------------------------------------------------------------
# group-ring elements


@dataclass(frozen=True)
class GroupRingElt:
    """Element of Q[G_n] (or Q[G_n^+] when plus) as integer numerators over
    one denominator: nums[i] / den is the coefficient of the i-th entry of
    group_reps(level, plus), with den > 0 and gcd(den, *nums) = 1 (so zero
    has den = 1).  ``coeffs`` is the sorted tuple of nonzero (rep, Fraction)
    pairs, built on first use."""

    level: int
    plus: bool
    nums: tuple
    den: int

    @classmethod
    def _from_ints(cls, level, plus, nums, den):
        """Element nums / den (den > 0, one numerator per representative),
        normalized."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [v // g for v in nums]
                den //= g
        return cls(level, plus, tuple(nums), den)

    @cached_property
    def coeffs(self):
        den = self.den
        return tuple((r, Fraction(v, den))
                     for r, v in zip(group_reps(self.level, self.plus), self.nums) if v)

    def coefficient(self, a):
        i = _unit_positions(self.level, self.plus)[canon_rep(a, self.level, self.plus)]
        return Fraction(self.nums[i], self.den)

    def augmentation(self):
        return Fraction(sum(self.nums), self.den)

    def is_integral(self):
        return self.den == 1

    def denominator_lcm(self):
        return self.den

    def _terms(self):
        """(Kronecker index, numerator) of each nonzero coefficient."""
        return [(k, v) for k, v in zip(_rep_keys(self.level, self.plus), self.nums) if v]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.level != other.level or self.plus != other.plus:
            raise LevelError("group-ring mismatch")

    def _add(self, other, sign):
        self._check(other)
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        return GroupRingElt._from_ints(self.level, self.plus,
                                       [a * fa + b * fb for a, b in zip(self.nums, other.nums)], d)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return GroupRingElt(self.level, self.plus, tuple(-a for a in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElt._from_ints(self.level, self.plus,
                                           [a * other.numerator for a in self.nums],
                                           self.den * other.denominator)
        self._check(other)
        a = self._terms()
        prod = _product(self.level, self.plus, a, a if other is self else other._terms())
        return GroupRingElt._from_ints(self.level, self.plus, prod, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = identity(self.level, self.plus)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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
    mu = len(group_reps(n, plus))
    if len(vec) != mu:
        raise ValueError("vector of length %d for %d representatives" % (len(vec), mu))
    vec = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in vec]
    # the lcm of reduced denominators shares no factor with all numerators
    den = lcm(*(c.denominator for c in vec))
    return GroupRingElt(n, plus, tuple(c.numerator * (den // c.denominator) for c in vec), den)


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
    m = n
    while m % ell == 0:
        m //= ell
    frob, f = {1 % m}, ell % m
    while f not in frob:
        frob.add(f)
        f = f * ell % m
    return m, frob


def decomposition_group(n, ell):
    """Decomposition subgroup of the prime ell | n in G_n^+, as a sorted
    tuple of plus representatives: via CRT it is the image of
    (Z/ell^a)^x x <ell mod m> for n = ell^a m, so the plus class {r, n - r}
    is a member when r or -r is a Frobenius residue mod m."""
    m, frob = _frobenius(n, ell)
    return tuple(r for r in group_reps(n, True) if r % m in frob or -r % m in frob)


@lru_cache(maxsize=None)
def _e_n_expansion(n):
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
            hk = _subgroup_join(n, h, d)
            new[hk] = new.get(hk, Fraction(0)) - c
        terms = {h: c for h, c in new.items() if c}
    if len(polys.prime_factors(n)) == 1:
        terms[whole] = terms.get(whole, Fraction(0)) + 1
        terms = {h: c for h, c in terms.items() if c}
    return terms


def _subgroup_join(n, h, k):
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


@lru_cache(maxsize=None)
def idempotent_e_n(n):
    """The idempotent of Q[G_n^+] cutting out the span of eps_n: the product
    of (1 - e_D) over decomposition groups of the primes dividing n, plus the
    full-group average when n is a prime power.  Verified idempotent."""
    if n < 2:
        raise LevelError("level must be >= 2")
    terms = _e_n_expansion(n)
    # sum of c_H e_H over one denominator: e_H puts 1/|H| on each member
    den = lcm(*(c.denominator * len(h) for h, c in terms.items()))
    pos = _unit_positions(n, True)
    nums = [0] * len(group_reps(n, True))
    for h, c in terms.items():
        v = c.numerator * (den // (c.denominator * len(h)))
        for r in h:
            nums[pos[r]] += v
    e = GroupRingElt._from_ints(n, True, nums, den)
    _certify_idempotent(e)
    return e


def _certify_idempotent(e):
    """Raise ArithmeticError unless e*e == e."""
    if e * e != e:
        raise ArithmeticError("e_n failed the idempotency check")


# ---------------------------------------------------------------------------
# ideal lattices


@dataclass(frozen=True)
class IdealLattice:
    """Finitely generated subgroup of the group ring, rows in canonical HNF
    over the fixed coordinate order (ascending representatives)."""

    level: int
    plus: bool
    hnf: tuple    # tuple of tuples of ints

    @classmethod
    def from_rows(cls, level, plus, rows):
        return cls(level, plus, tuple(tuple(r) for r in intlinalg.hnf(rows)))

    @property
    def rank(self):
        return len(self.hnf)

    def contains(self, x):
        if isinstance(x, GroupRingElt):
            if x.level != self.level or x.plus != self.plus:
                raise LevelError("group-ring mismatch")
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

    def _check(self, other):
        if other.level != self.level or other.plus != self.plus:
            raise LevelError("group-ring mismatch")

    def contains_lattice(self, other):
        self._check(other)
        return all(self.contains(list(row)) for row in other.hnf)

    def basis_elements(self):
        return [from_vector(self.level, self.plus, row) for row in self.hnf]

    def scaled(self, k):
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


def annihilator_In_formula(n):
    """Annihilator of eps_n in Z[G_n^+], the integer kernel of e_n, in HNF:
    the saturated coset rows of the minimal D_l (a coset sum of a larger
    D_l is a sum of coset sums of a smaller one), 0 at a prime power where
    e_n = 1.  The rank is certified as mu (1 - e_n(1)), the number of
    characters e_n kills."""
    if n < 2:
        raise LevelError("level must be >= 2")
    reps = group_reps(n, True)
    mu = len(reps)
    primes = polys.prime_factors(n)
    rows = []
    if len(primes) > 1:
        groups = {frozenset(decomposition_group(n, ell)) for ell in primes}
        minimal = [h for h in groups if not any(k < h for k in groups)]
        at = _unit_positions(n, True)
        for h in minimal:
            marked = [False] * mu
            for i, g in enumerate(reps):
                if not marked[i]:
                    row = [0] * mu
                    for x in h:
                        j = at[g * x % n]
                        marked[j] = True
                        row[j] = 1
                    rows.append(row)
    rows = intlinalg.saturate(rows, mu)
    killed = mu - sum(c * (mu // len(h)) for h, c in _e_n_expansion(n).items())
    if len(rows) != killed:
        raise ArithmeticError("I_%d has rank %d, but e_n kills %s characters"
                              % (n, len(rows), killed))
    return IdealLattice(n, True, tuple(map(tuple, rows)))


def annihilator_In_oracle(n, max_phi=16):
    """Independent construction of the annihilator of eps_n: the rational
    kernel of the double-precision log embedding matrix, each kernel vector
    verified exactly by eps_n^v = 1 in the field, then saturated.  Never
    accepts unverified numeric output: raises PrecisionError at the first
    vector that fails the check."""
    if n < 2:
        raise LevelError("level must be >= 2")
    if polys.euler_phi(n) > max_phi:
        raise ValueError("phi(%d) exceeds the configured oracle bound %d" % (n, max_phi))
    reps = group_reps(n, True)
    eps = eps_n(n)
    ell = {d: 2 * log(2 * sin(pi * d / n)) for d in reps}
    rows = [[ell[canon_rep(c * g, n, True)] for g in reps] for c in reps]
    candidates = []
    for vec in _float_kernel(rows):
        fr = [Fraction(v).limit_denominator(4096) for v in vec]
        den = lcm(*(q.denominator for q in fr))
        ivec = [int(q * den) for q in fr]
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


def annihilator_Tn(n, starred=False):
    """Annihilator in Z[G_n] of -z_n; with starred and odd n, the annihilator
    of -z_(2n) carried over through Q(2n) = Q(n)."""
    if n < 2:
        raise LevelError("level must be >= 2")
    exps, order = _root_exponents(n, "T*" if starred else "T")
    return IdealLattice(n, False, tuple(map(tuple, intlinalg.congruence_hnf(exps, order))))


def annihilator_mu(n):
    """Annihilator in Z[G_n] of the full group mu_n (equivalently of z_n)."""
    exps, order = _root_exponents(n, "mu")
    return IdealLattice(n, False, tuple(map(tuple, intlinalg.congruence_hnf(exps, order))))


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
