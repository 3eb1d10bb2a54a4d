"""Exact arithmetic in the tower of cyclotomic fields Q(zeta_n).

Elements are rational coefficient vectors on the power basis
1, z, ..., z^(phi(n)-1) of Q(zeta_n), reduced modulo the n-th cyclotomic
polynomial, and stored as integer numerators over one positive common
denominator that shares no factor with all of them.  Group-ring elements
share that representation (`_Vector`), its sums and its one reader of
the nonzero numerators, which every scan and evaluation reads.  The
compatible-system convention is zeta_(mn)^m = zeta_n, so coercion up a
level sends z_n^i to z_m^((m/n) i).  Coercion down goes one prime q at a
time: where q^2 divides the level it keeps every q-th coefficient,
elsewhere it takes the relative trace over Q(zeta_(m/q)) divided by q - 1,
and each step verifies subfield membership exactly instead of assuming it.

Products are one integer convolution of the numerators.  Reduction folds
exponents with z^n = 1 and then divides by Phi_n using only its nonzero
coefficients.  At prime-power levels, and wherever n has few prime factors,
there are a handful; at squarefree levels with several odd primes there can
be hundreds (Phi_1155 has 342 nonzero lower terms), and reduction there
costs accordingly.

Embeddings have one evaluator, shared by total positivity, the exponent
solver's logarithms and the norm bound of the exponent certificate.  A
double-precision sum of the nonzero coefficients against one per-level
table of the powers of zeta gives every sigma_c(x) with one rounding bound;
floating point only ever reads a value that stands far above that bound.
That pass, the tau flag and the inverse are kept on the element itself
(`_kept`), not in a cache keyed by its value: they live as long as the
element, and no lookup hashes its numerators.
A real embedding it cannot read is re-evaluated exactly at doubling
fixed-point precision: integer floor and ceiling bounds on
2^prec cos(2 pi r / n) are summed against the integer numerators, so every
sign it reports is certified.  The bounds are one
table per level and precision, built in integers alone: pi from Machin's
formula, 2^w zeta_n from its Taylor series, and its powers from one
recurrence, each rounding carried as an integer error bound.

The norm to Q is evaluated at split primes (`polys.cyclo_norm`): modulo a
prime p = 1 mod n it is the product of x(z^c) over the units c, for a
primitive n-th root z mod p, each value a sparse sum of the nonzero
numerators against the one table of powers of z that `polys.split_prime`
keeps.  The residues are joined by CRT until the modulus exceeds twice the
l1 bound of the numerators raised to phi(n).
Valuations at prime-power levels are read from the coefficients on the
powers of the uniformizer 1 - zeta, one Taylor shift of the numerators.
"""

from fractions import Fraction
from functools import lru_cache, reduce, wraps
from math import cos, gcd, isqrt, lcm, log, pi, sin
from operator import attrgetter, mul

from . import polys


class LevelError(ValueError):
    """Level precondition violated (mismatch, non-divisibility, n < 1)."""


class SubfieldError(ArithmeticError):
    """A norm or coercion result failed the exact subfield-membership check."""


class PrecisionError(ArithmeticError):
    """A numeric stage could not reach a certified result: an embedding not
    separated from zero, or numeric output that exact checks rejected."""


@lru_cache(maxsize=None)
class _LevelCtx:
    """Per-level data: the cyclotomic polynomial and its sparse lower terms."""

    def __init__(self, n):
        self.n = n
        self.phi_poly = polys.cyclotomic_polynomial(n)
        self.degree = len(self.phi_poly) - 1
        self.phi_terms = polys.monic_lower_terms(self.phi_poly)

    def reduce_int_vec(self, vec):
        """Reduce an integer coefficient vector of any length mod Phi_n."""
        n = self.n
        folded = list(vec[:n])
        for start in range(n, len(vec), n):
            for i, c in enumerate(vec[start:start + n]):
                if c:
                    folded[i] += c
        return polys.int_rem_monic(folded, self.degree, self.phi_terms)


_set = object.__setattr__


def _kept(fn):
    """Decorator: fn(x), made on first use, is kept in the cache slot _<name
    of fn> of the value x (`_Value`); a call that raises keeps nothing."""
    slot = "_" + fn.__name__

    def kept(x):
        try:
            return getattr(x, slot)
        except AttributeError:
            _set(x, slot, fn(x))
            return getattr(x, slot)
    return wraps(fn)(kept)


class _Value:
    """Immutable value whose fields are its public ``__slots__``, in order.
    Equality (same class, equal fields), hashing, ``Name(field=value, ...)``
    repr and pickling read those fields, as for a frozen dataclass; slots
    named with a leading underscore are caches outside the value, filled
    by `_kept` and never pickled or copied, and a subclass that declares
    no fields keeps its parent's."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        if fields:
            cls._fields = fields
            cls._key = attrgetter(*fields)      # a tuple: every value has 2+ fields

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            try:
                args += tuple(kwargs.pop(f) for f in names[len(args):])
            except KeyError as missing:
                raise TypeError("%s() missing field %s" % (type(self).__name__, missing)) from None
        if len(args) != len(names) or kwargs:
            raise TypeError("%s() takes the fields %s" % (type(self).__name__, ", ".join(names)))
        for f, v in zip(names, args):
            _set(self, f, v)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return type(self), self._key(self)


class _Vector(_Value):
    """Value whose fields end in ``nums, den``: integer numerators over a
    positive den with gcd(den, *nums) = 1, after a head (`_head`) that
    operands must share (`_check`).  Equality reads nums and den first."""

    __slots__ = ()

    def _put(self, nums, den):
        """self with the fields nums / den (den > 0), divided by their gcd."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)
        return self

    def nonzero(self):
        """Iterator over the (position, numerator) pairs with numerator != 0."""
        return ((i, c) for i, c in enumerate(self.nums) if c)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self._head() == other._head()

    def _add(self, other, sign):
        other = self._check(other)
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        nums = [a * fa + b * fb for a, b in zip(self.nums, other.nums)]
        return self._from_ints(*self._head(), nums, d)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return self._from_ints(*self._head(), [-a for a in self.nums], self.den)

    def _scaled(self, q):
        """self times the int or Fraction q."""
        nums = [a * q.numerator for a in self.nums]
        return self._from_ints(*self._head(), nums, self.den * q.denominator)

    def is_zero(self):
        return not any(self.nums)

    def is_integral(self):
        return self.den == 1

    def denominator_lcm(self):
        return self.den


def _numerators(coeffs, length):
    """(nums, den): the rationals coeffs as integer numerators over the lcm
    of their reduced denominators, which shares no factor with all of them.
    ValueError unless there are length of them."""
    coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    if len(coeffs) != length:
        raise ValueError("vector of length %d for %d coefficients" % (len(coeffs), length))
    den = lcm(*[c.denominator for c in coeffs])
    return tuple([c.numerator * (den // c.denominator) for c in coeffs]), den


class CycElt(_Vector):
    """Element of Q(zeta_level) on the power basis; immutable value.

    ``CycElt(level, coeffs)`` takes the phi(level) rational coefficients.
    The value is held as ``nums`` (a tuple of integers) over ``den``
    (`_Vector`); ``coeffs`` is the tuple of Fractions nums[i] / den.  It,
    the tau flag, the double-precision embeddings and the inverse are each
    made on first use and kept on the element (`_kept`).
    """

    __slots__ = ("level", "nums", "den",
                 "_coeffs", "_is_tau_fixed", "_double_embeddings", "_inverse")

    def __init__(self, level, coeffs):
        if level < 1:
            raise LevelError("level must be >= 1")
        nums, den = _numerators(coeffs, polys.euler_phi(level))
        _set(self, "level", level)
        _set(self, "nums", nums)
        _set(self, "den", den)

    @classmethod
    def _from_ints(cls, level, nums, den=1):
        """Element nums / den (den > 0, len(nums) = phi(level)), normalized."""
        x = object.__new__(cls)
        _set(x, "level", level)
        return x._put(nums, den)

    def _head(self):
        return (self.level,)

    def __hash__(self):
        return hash((self.level, self.nums, self.den))

    @property
    @_kept
    def coeffs(self):
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    def __repr__(self):
        return "CycElt(level=%d, coeffs=%r)" % (self.level, self.coeffs)

    def __reduce__(self):
        return (CycElt, (self.level, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CycElt):
            other = from_rational(self.level, other)
        if other.level != self.level:
            raise LevelError("level mismatch: %d vs %d" % (self.level, other.level))
        return other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._check(other)
        prod = polys.int_poly_mul(self.nums, other.nums)
        return CycElt._from_ints(self.level,
                                 _LevelCtx(self.level).reduce_int_vec(prod),
                                 self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return inverse(self) ** (-k)
        return _power(self, k) if k else one(self.level)


def from_rational(n, q):
    q = Fraction(q)
    return CycElt._from_ints(n, [q.numerator] + [0] * (polys.euler_phi(n) - 1),
                             q.denominator)


def one(n):
    return from_rational(n, 1)


def zero(n):
    return from_rational(n, 0)


def _power(x, k):
    """x ** k for k >= 1 by repeated squaring, starting from the first
    factor: no product by the identity."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if not k:
            return result
        x = x * x


def zeta(n):
    """The distinguished primitive n-th root (exponent convention z_n)."""
    return zeta_power(n, 1)


def zeta_power(n, k):
    vec = [0] * n
    vec[k % n] = 1
    return CycElt._from_ints(n, _LevelCtx(n).reduce_int_vec(vec))


# ---------------------------------------------------------------------------
# Galois action


class GaloisElt(_Value):
    """Automorphism z_n -> z_n^a of Q(zeta_n); a is a unit mod n."""

    __slots__ = ("level", "a")

    def __init__(self, level, a):
        if level < 1:
            raise LevelError("level must be >= 1")
        if level > 1 and (not 1 <= a < level or gcd(a, level) != 1):
            raise ValueError("a = %d is not a reduced unit mod %d" % (a, level))
        _set(self, "level", level)
        _set(self, "a", a)


def tau(n):
    """Complex conjugation at level n."""
    return GaloisElt(n, n - 1 if n > 2 else 1)


def act(g, x):
    """Apply a Galois automorphism (GaloisElt or unit int) to x."""
    a = g.a if isinstance(g, GaloisElt) else g
    n = x.level
    if isinstance(g, GaloisElt) and g.level != n:
        raise LevelError("automorphism level %d does not match element level %d"
                         % (g.level, n))
    a %= n
    if n <= 2 or a == 1:
        return x
    if gcd(a, n) != 1:
        raise ValueError("a = %d is not a unit mod %d" % (a, n))
    return _scatter(x, n, a)


def _scatter(x, m, step):
    """x with z^i sent to z_m^(step i), at level m."""
    long = [0] * m
    for i, c in x.nonzero():
        long[(i * step) % m] += c
    return CycElt._from_ints(m, _LevelCtx(m).reduce_int_vec(long), x.den)


@_kept
def inverse(x):
    """1 / x, for nonzero x, kept on x: the same eps_n is raised to negative
    exponents again and again.  The inverse keeps no link back to x.
    ZeroDivisionError for x = 0 (`polys.cyclo_inverse`)."""
    inv, den = polys.cyclo_inverse(x.nums, x.level)
    return CycElt._from_ints(x.level, [c * x.den for c in inv], den)


def apply_integer_exponents(x, terms):
    """Product of sigma_a(x)^k over (a, k) pairs with integer k (any sign)."""
    pos = xinv = None
    for a, k in terms:
        if k < 0 and xinv is None:
            xinv = inverse(x)
        if k:
            f = act(a, x) ** k if k > 0 else act(a, xinv) ** -k
            pos = f if pos is None else pos * f
    return one(x.level) if pos is None else pos


# ---------------------------------------------------------------------------
# level coercion and norms


def raise_level(x, m):
    """Embed x into Q(zeta_m) for a multiple m of x.level (z_n = z_m^(m/n))."""
    n = x.level
    if m == n:
        return x
    if m % n:
        raise LevelError("%d does not divide %d" % (n, m))
    return _scatter(x, m, m // n)


def lower_level(x, n):
    """Rewrite x at level n (n | x.level); exact membership check included.

    Descends one prime q at a time from m to m' = m / q.  If q | m', then
    Phi_m(X) = Phi_m'(X^q), so the power basis of level m is z_m^(j + q i)
    (j < q, i < phi(m')) and x lies in Q(zeta_m') iff its coefficients off
    the multiples of q vanish.  Otherwise z_m^k = z_m'^(u k) z_q^(v k) with
    u q + v m' = 1, the trace to level m' sends z_m^k to z_m'^(u k) times
    q - 1 (if q | k) or -1, and the candidate Tr(x) / (q - 1) is accepted
    only if it raises back to x.  Raises SubfieldError at the first step
    whose check fails.
    """
    m = x.level
    if m % n:
        raise LevelError("%d does not divide %d" % (n, m))
    for q in polys.prime_factors(m // n):
        while x.level % (n * q) == 0:
            m = x.level
            low = m // q
            if low % q == 0:
                if any(k % q for k, _ in x.nonzero()):
                    raise SubfieldError("element is not in the level-%d subfield" % n)
                x = CycElt._from_ints(low, x.nums[::q], x.den)
                continue
            u = pow(q, -1, low) if low > 1 else 0
            trace = [0] * low
            for k, c in x.nonzero():
                trace[u * k % low] += c * (q - 1) if k % q == 0 else -c
            y = CycElt._from_ints(low, _LevelCtx(low).reduce_int_vec(trace),
                                  x.den * (q - 1))
            if raise_level(y, m) != x:
                raise SubfieldError("element is not in the level-%d subfield" % n)
            x = y
    return x


def relative_galois_group(m, n):
    """Units a mod m with a = 1 (mod n): Gal(Q(m)/Q(n)) under the convention."""
    if m % n:
        raise LevelError("%d does not divide %d" % (n, m))
    return [a for a in polys.units(m) if a % n == 1 % n]


def norm_down(x, n):
    """Field norm from level x.level to level n (n | x.level), verified."""
    conj = (act(a, x) for a in relative_galois_group(x.level, n))
    return lower_level(reduce(mul, conj), n)


def sigma_ell(ell, n):
    """The automorphism acting trivially on the ell-part of level n and as
    the inverse Frobenius on the prime-to-ell part (CRT construction)."""
    q = ell ** polys.order_at(n, ell)
    m = n // q
    return GaloisElt(n, polys.crt_pair(1, q, pow(ell, -1, m), m) if m > 1 else 1)


# ---------------------------------------------------------------------------
# residue computations


def reduce_mod_ell(x, ell):
    """Coefficient-wise reduction to F_ell[t]/(Phi_n mod ell); returns the
    little-endian coefficient list of the residue polynomial."""
    if x.den % ell == 0:
        raise ValueError("coefficient denominator divisible by %d" % ell)
    inv = pow(x.den, -1, ell)
    return polys.fp_trim([c * inv % ell for c in x.nums])


def vanishes_at_all_primes_above(x, ell):
    """True iff x lies in every prime of Z[zeta_n] above ell.

    Z[zeta_n] is the maximal order, so primes above ell correspond to the
    distinct irreducible factors of Phi_n mod ell.  With n = ell^a m and
    ell not dividing m, Phi_n = Phi_m^phi(ell^a) mod ell and Phi_m is
    separable mod ell, so the test is divisibility of the residue by
    Phi_m mod ell.
    """
    n = x.level
    res = reduce_mod_ell(x, ell)
    if not res:
        return True
    m = n // ell ** polys.order_at(n, ell)
    rad = [c % ell for c in polys.cyclotomic_polynomial(m)]
    return not polys.fp_divmod(res, rad, ell)[1]


def _prime_power_split(n):
    ps = polys.prime_factors(n)
    if len(ps) != 1:
        raise LevelError("level %d is not a prime power" % n)
    return ps[0]


def valuation_at_p(x, p):
    """Valuation of nonzero x at the unique prime above p; the level must be
    a power of p and pi = 1 - zeta is the uniformizer.

    That prime has residue degree 1 and p = pi^phi(n) up to a unit.  With
    zeta = 1 - pi the numerators c_j of x become den x = sum_i (-1)^i b_i pi^i,
    b_i = sum_(j >= i) C(j, i) c_j (a Taylor shift; the degree stays below
    phi(n), so nothing is reduced).  The terms have valuations
    phi(n) v_p(b_i) + i, distinct modulo phi(n), so the least of them is the
    valuation of den x."""
    n = x.level
    if n < 2 or _prime_power_split(n) != p:
        raise LevelError("level %d is not a power of %d" % (n, p))
    if x.is_zero():
        raise ZeroDivisionError("valuation of zero")
    b = list(x.nums)
    phi = len(b)
    for i in range(phi - 1):
        for j in range(phi - 2, i - 1, -1):
            b[j] += b[j + 1]
    return (min(phi * polys.order_at(c, p) + i for i, c in enumerate(b) if c)
            - phi * polys.order_at(x.den, p))


def norm_to_q(x):
    """Field norm down to Q, as an exact Fraction (`polys.cyclo_norm`)."""
    return polys.cyclo_norm(x.nums, x.level, x.den)


def is_unit(x):
    """Global unit test: integral coefficients and |norm| = 1."""
    if x.is_zero():
        return False
    if not x.is_integral():
        return False
    return abs(norm_to_q(x)) == 1


def is_p_unit(x, p):
    """p-unit test: integral coefficients and |norm| a power of p."""
    if x.is_zero():
        return False
    if not x.is_integral():
        return False
    nrm = abs(norm_to_q(x))
    val = nrm.numerator
    if nrm.denominator != 1 or val == 0:
        return False
    return val == p ** polys.order_at(val, p)


# ---------------------------------------------------------------------------
# embeddings and total positivity (certified)

# A double-precision real part counts as read when it stands this many times
# above its rounding bound: its sign is then certain and its log is good to
# 2^-20.  Anything closer to zero goes to the interval evaluation.
_READ_MARGIN = 2.0 ** 20


@_kept
def is_tau_fixed(x):
    """True iff tau(x) = x, exactly: then every sigma_c(x) is real."""
    return act(tau(x.level), x) == x


@lru_cache(maxsize=None)
def _zeta_powers(n):
    """The complex doubles zeta^k = e^(2 pi i k / n) for k < n, and their
    real parts."""
    powers = tuple(complex(cos(2 * pi * k / n), sin(2 * pi * k / n)) for k in range(n))
    return powers, tuple(z.real for z in powers)


@_kept
def double_embeddings(x):
    """sigma_c(x) = sum_i x_i zeta^(i c) at the plus representatives c, in
    complex double precision, or as real doubles when x is tau-fixed
    (`is_tau_fixed`), where the imaginary parts vanish.  Kept on x: the
    solve reads the logs and each of its certificates the moduli of one
    pass.  ZeroDivisionError for x = 0, whose embeddings have no log.

    Returns (reps, vals, err, shift).  The numerators are divided by their
    largest |x_i| first, so nothing overflows; then sigma_c(x) is
    e^shift (vals[k] + d), where err = (phi + 2) 2^-52 sum_i |x_i / top|
    bounds the rounding of the sum and |d| exceeds it at most by a few
    units of 2^-52 per table entry.  Only the nonzero x_i are summed, each
    against one table of the powers of zeta; a zero term adds no rounding,
    so the bound holds in any summation order.  Callers read a value only
    far above err: 2^20 err for a real part, 2^10 err added to a modulus.
    """
    from .groupring import group_reps      # groupring imports this module
    n = x.level
    top = max(map(abs, x.nums))
    if not top:
        raise ZeroDivisionError("the embeddings of zero have no log")
    reps = group_reps(n, True)
    powers = _zeta_powers(n)[is_tau_fixed(x)]
    terms = [(i, c / top) for i, c in x.nonzero()]
    vals = tuple(sum(v * powers[i * c % n] for i, v in terms) for c in reps)
    err = (len(x.nums) + 2) * 2.0 ** -52 * sum(abs(v) for _, v in terms)
    return reps, vals, err, log(top) - log(x.den)


def _ceil_div(a, b):
    return -(-a // b)


def _atan_inv(x, w):
    """(a, e) with |a - 2^w atan(1/x)| <= e, for an integer x >= 2.

    The series sum_k (-1)^k / ((2k + 1) x^(2k + 1)) in fixed point: p is
    the floor of 2^w / x^(2k + 1) and 0 <= 2^w / x^(2k + 1) - p < ep, each
    term p // (2k + 1) lies less than ep / (2k + 1) + 1 below its true
    value, and once p reaches 0 the alternating tail is below ep."""
    x2 = x * x
    p, ep = (1 << w) // x, 1
    total = err = k = 0
    while p:
        t = p // (2 * k + 1)
        total += -t if k & 1 else t
        err += _ceil_div(ep, 2 * k + 1) + 1
        p, ep = p // x2, _ceil_div(ep, x2) + 1
        k += 1
    return total, err + ep


# The Taylor series of the root of unity stops at its first term below this
# many units of 2^-w (once the terms halve); the tail bound covers any value
_SERIES_STOP = 1


def _unit_root(n, w):
    """(c, s, h): integers with |(c + i s) - 2^w e^(2 pi i / n)| <= h.

    pi comes from Machin's formula 16 atan(1/5) - 4 atan(1/239) at g extra
    bits; t = 2^w 2 pi / n, floored, is off by at most et.  The Taylor
    terms t_k of e^(i t / 2^w) are floored one from the last, so the error
    e_k of t_k obeys e_k <= e_(k-1) t / (k 2^w) + 1.  The series stops at
    the first k >= 2 t / 2^w with t_k < _SERIES_STOP; from there the true
    terms at least halve, so the tail from k on is below 2 (t_k + e_k).
    R = e_1 + ... + e_(k-1) + 2 (t_k + e_k) bounds the error of c and of s,
    so the modulus error is at most sqrt(2) R + et, since
    |e^(ia) - e^(ib)| <= |a - b|."""
    g = w.bit_length() + 5
    a5, e5 = _atan_inv(5, w + g)
    a239, e239 = _atan_inv(239, w + g)
    pi_g, e_pi = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    t = 2 * pi_g // (n << g)
    et = _ceil_div(2 * e_pi, n << g) + 1
    c, s = 1 << w, 0
    term, e, k, r = 1 << w, 0, 0, 0
    while True:
        k += 1
        term = term * t // k >> w
        e = _ceil_div(e * t, k << w) + 1
        if term < _SERIES_STOP and k << w >= 2 * t:
            break
        r += e
        sign = -1 if k & 2 else 1           # i^k is sign or sign * i
        if k & 1:
            s += sign * term
        else:
            c += sign * term
    r += 2 * (term + e)
    return c, s, isqrt(2 * r * r) + 1 + et


def _cos_fixed(n, w):
    """Pairs (x, d) for r = 0, 1, ..., n // 2 with |x - 2^w cos(2 pi r / n)|
    <= d, from one recurrence: z_0 = 2^w and z_(r+1) = z_r u / 2^w, floored
    in each part, with u = 2^w zeta_n up to h (`_unit_root`).  If z_r is
    within d of 2^w zeta_n^r, the exact product is within d + h + d h / 2^w
    of 2^w zeta_n^(r+1), and the floors add less than sqrt(2); d is carried
    as an integer step by step, so it grows by about h + 2 per step."""
    c, s, h = _unit_root(n, w)
    out = []
    x, y, d = 1 << w, 0, 0
    for _ in range(n // 2 + 1):
        out.append((x, d))
        x, y = (x * c - y * s) >> w, (x * s + y * c) >> w
        d += h + 2 + _ceil_div(d * h, 1 << w)
    return out


@lru_cache(maxsize=None)
def _cos_bounds(n, prec):
    """Integers (lo, hi) with lo <= 2^prec cos(2 pi r / n) <= hi and
    hi - lo <= 2, for every r <= n / 2 (r and n - r share a cosine).

    `_cos_fixed` at w = prec + 20 + bitlen(n) bits, each x -/+ d rounded
    outwards to the grid 2^-prec: the n.bit_length() guard bits absorb the
    growth of d over n / 2 steps.  Raises ArithmeticError if an entry is
    wider than 2 or misses a known value (cos 0 = 1, cos pi = -1,
    cos pi/2 = 0)."""
    shift = 20 + n.bit_length()
    table = tuple(((x - d) >> shift, -((-x - d) >> shift))
                  for x, d in _cos_fixed(n, prec + shift))
    one = 1 << prec
    known = [(0, one)]
    if n % 2 == 0:
        known.append((n // 2, -one))
    if n % 4 == 0:
        known.append((n // 4, 0))
    for r, v in known:
        lo, hi = table[r]
        if not lo <= v <= hi:
            raise ArithmeticError("cos(2 pi %d / %d) escaped its bounds" % (r, n))
    if any(hi - lo > 2 for lo, hi in table):
        raise ArithmeticError("a level-%d cosine bound is wider than 2^-%d"
                              % (n, prec - 1))
    return table


def interval_embedding(x, c, terms=None):
    """(sign, log |sigma_c(x)|) of the tau-fixed x at the real embedding c,
    certified by an exact fixed-point sum.  ZeroDivisionError for x = 0;
    ValueError for an x that tau moves (`is_tau_fixed`), whose embedding
    is not real.

    At prec bits, sum_i x_i cos(2 pi i c / n) times 2^prec lies between
    the integers lo = sum_i x_i lo_i and hi = sum_i x_i hi_i, where lo_i
    and hi_i are the floor and ceiling bounds of the cosines (taken the
    other way round where x_i < 0); nothing is rounded after the cosines.
    Only the nonzero x_i are summed: terms, the pairs of x.nonzero() when
    the caller has read them already, else read here.  Their cosine indices
    are found once.
    prec starts at 128 bits and doubles until [lo, hi] excludes 0 and is
    narrower than 2^-53 of its endpoints; the log is read from the endpoint
    nearer zero, divided by the denominator in one rounding.  Raises
    PrecisionError past 4096 bits.
    """
    n = x.level
    at = [(min(r, n - r), a) for i, a in terms or x.nonzero() for r in [i * c % n]]
    if not at:
        raise ZeroDivisionError("the embeddings of zero have no log")
    if not is_tau_fixed(x):
        raise ValueError("element is not fixed by conjugation")
    prec = 128
    while prec <= 4096:
        bounds = _cos_bounds(n, prec)
        lo = hi = 0
        for r, a in at:
            cl, ch = bounds[r]
            if a < 0:
                cl, ch = ch, cl
            lo += a * cl
            hi += a * ch
        if lo > 0 or hi < 0:
            near = lo if lo > 0 else -hi
            if (hi - lo) << 53 < near:
                # the value is q 2^(s - prec) with q = near / (den 2^s) in
                # (1/2, 2), one correctly rounded int division; subtracting
                # log(den) from a log of near instead loses ~1e-15 to
                # cancellation when both are ~7
                s = near.bit_length() - x.den.bit_length()
                q = near / (x.den << s) if s >= 0 else (near << -s) / x.den
                mag = log(q) + (s - prec) * log(2.0)
                return (1 if lo > 0 else -1), mag
        prec *= 2
    raise PrecisionError("could not separate embedding %d from zero" % c)


def embedding_logs(x):
    """log sigma_c(x) at the plus representatives c of the tau-fixed x, or
    None when some sigma_c(x) is not positive.  ZeroDivisionError for
    x = 0; ValueError for an x that tau moves.

    Each real part comes from `double_embeddings`, kept on x; one that does
    not stand _READ_MARGIN times its rounding bound away from zero is
    evaluated by `interval_embedding`, which certifies its sign.  x's
    nonzero numerators are read once, at the first such embedding, and
    handed to each of them; nothing of them outlives the call.  A real
    part read as negative decides at once, without evaluating the rest.
    """
    reps, vals, err, shift = double_embeddings(x)
    if not is_tau_fixed(x):
        raise ValueError("element is not fixed by conjugation")
    read = _READ_MARGIN * err
    if min(vals) < -read:
        return None
    logs, terms = [], ()
    for c, v in zip(reps, vals):
        if v > read:
            logs.append(log(v) + shift)
            continue
        terms = terms or tuple(x.nonzero())
        sign, mag = interval_embedding(x, c, terms)
        if sign < 0:
            return None
        logs.append(mag)
    return logs


def is_totally_positive(x):
    """True iff every real embedding of the tau-fixed element x is positive.

    Certified by `embedding_logs`, whose ZeroDivisionError (x = 0) and
    ValueError (x not tau-fixed) it raises: a nonzero tau-fixed element has
    no vanishing real embedding, so the interval escalation terminates.
    """
    return embedding_logs(x) is not None


# ---------------------------------------------------------------------------
# serialization


def _frac_str(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def cyc_to_json(x):
    return {"level": x.level, "coeffs": [_frac_str(c) for c in x.coeffs]}


def cyc_from_json(obj):
    return CycElt(int(obj["level"]), tuple(Fraction(s) for s in obj["coeffs"]))
