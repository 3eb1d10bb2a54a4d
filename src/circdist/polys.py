"""Dense polynomial arithmetic over Z, Q and prime fields.

Polynomials are little-endian coefficient lists ([] is the zero polynomial).
Integer multiplication goes through one signed Kronecker substitution: each
operand is packed into one big integer by halving shifts, the two are
multiplied once (by gmpy2 when it is installed, else by Python's int), and
the product is unpacked with a 2^(w-1) offset per w-bit chunk so negative
coefficients come out exactly.  Remainders modulo a monic polynomial touch
only its nonzero coefficients, one operation per nonzero lower term of Phi_n
per step: 6 at n = 1215, but 342 at the squarefree 1155 and 916 at 3003.

Also here: cyclotomic polynomials by one recursion on the largest prime q
of n (Phi_n(x) is Phi_(n/q)(x^q), divided by Phi_(n/q)(x) unless q^2 | n),
mod-l polynomial arithmetic, and the one table of split primes p = 1 mod n:
z^r mod p for every r < n, z of order n.  By CRT over those primes, field
norms and inverses modulo Phi_n are computed on integer numerators (the
inverses verified exactly).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm

try:
    from gmpy2 import mpz
except ImportError:          # gmpy2 is optional (the fast extra)
    mpz = int


# ---------------------------------------------------------------------------
# integer polynomials

_KRON_LEAF = 32     # chunk count below which packing shifts one by one


def _kron_pack(a, width, lo, hi):
    # sum of a[i] * 2^(width (i - lo)) over lo <= i < hi, signed; halving the
    # range keeps the shifted operands short, so packing is subquadratic
    if hi - lo <= _KRON_LEAF:
        v = 0
        for i in range(hi - 1, lo - 1, -1):
            v = (v << width) + a[i]
        return v
    mid = (lo + hi) // 2
    return (_kron_pack(a, width, lo, mid)
            + (_kron_pack(a, width, mid, hi) << (width * (mid - lo))))


def _kron_unpack(v, width, count, offset, out):
    # append the count low width-bit chunks of v >= 0, least significant
    # first, each minus offset
    if count <= _KRON_LEAF:
        mask = (1 << width) - 1
        for _ in range(count):
            out.append((v & mask) - offset)
            v >>= width
        return
    half = count // 2
    _kron_unpack(v & ((1 << (width * half)) - 1), width, half, offset, out)
    _kron_unpack(v >> (width * half), width, count - half, offset, out)


def int_poly_mul(a, b):
    """Product of integer coefficient lists."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    count = la + lb - 1
    if min(la, lb) < 16:
        out = [0] * count
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return out
    # one signed Kronecker product: every product coefficient c has
    # |c| <= bound < 2^(width-1), so c + 2^(width-1) fills one chunk exactly
    bound = max(map(abs, a)) * max(map(abs, b)) * min(la, lb)
    width = ((bound.bit_length() + 8) // 8) * 8
    pa = mpz(_kron_pack(a, width, 0, la))
    prod = pa * pa if a is b else pa * mpz(_kron_pack(b, width, 0, lb))
    offsets = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")
    out = []
    _kron_unpack(int(prod) + offsets, width, count, 1 << (width - 1), out)
    return out


def int_poly_divexact(a, b):
    """Quotient a / b of integer polynomials, assuming exact division."""
    a = fp_trim(list(a))
    db = len(b) - 1
    lead = b[db]
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("division is not exact")
            out[i] = q
            for j in range(db + 1):
                a[i + j] -= q * b[j]
    if any(a[:db]):
        raise ArithmeticError("division is not exact")
    return out


def monic_lower_terms(f):
    """(k, c) for each nonzero coefficient c of x^k, k < deg f, of a monic f."""
    return tuple((k, c) for k, c in enumerate(f[:-1]) if c)


def int_rem_monic(a, degree, terms):
    """Remainder of the integer list a modulo the monic x^degree + sum c x^k
    over (k, c) in terms, as a list of length degree; a is overwritten.

    Long division that touches only the nonzero terms: each step costs one
    operation per entry of terms (hundreds for Phi_n at n = 1155 or 3003)."""
    for j in range(len(a) - 1, degree - 1, -1):
        c = a[j]
        if c:
            base = j - degree
            for k, ck in terms:
                a[base + k] -= c * ck
    del a[degree:]
    a += [0] * (degree - len(a))
    return a


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def order_at(v, p):
    """Exponent of the prime p in the nonzero integer v."""
    if not v:
        raise ValueError("0 has no finite order at %d" % p)
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e


def euler_phi(n):
    r = n
    for p in prime_factors(n):
        r -= r // p
    return r


@lru_cache(maxsize=None)
def units(n):
    """The units 1 <= a < n mod n, ascending ((1,) for n <= 2): the
    multiples of the prime factors of n sieved out of range(n)."""
    if n <= 2:
        return (1,)
    keep = bytearray(b"\x01") * n
    for p in prime_factors(n):
        keep[::p] = bytes(-(-n // p))
    return tuple(compress(range(n), keep))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (little-endian) of the n-th cyclotomic polynomial.

    With q the largest prime factor of n and m = n / q, Phi_n(x) is
    Phi_m(x^q) when q divides m, and Phi_m(x^q) / Phi_m(x) otherwise
    (Washington, GTM 83, ch. 2)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n == 1:
        return (-1, 1)
    q = prime_factors(n)[-1]
    m = n // q
    base = cyclotomic_polynomial(m)
    lifted = [0] * ((len(base) - 1) * q + 1)
    lifted[::q] = base
    if m % q == 0:
        return tuple(lifted)
    return tuple(int_poly_divexact(lifted, base))


# ---------------------------------------------------------------------------
# polynomials over a prime field (lists of ints in [0, p))

def fp_trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def fp_mul(a, b, p):
    if not a or not b:
        return []
    return fp_trim([c % p for c in int_poly_mul(a, b)])


def fp_divmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError
    inv = pow(b[db], -1, p)
    support = [j for j in range(db + 1) if b[j]]
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = (a[i + db] * inv) % p
        q[i] = c
        if c:
            for j in support:
                a[i + j] = (a[i + j] - c * b[j]) % p
    return fp_trim(q), fp_trim(a[:db])


# ---------------------------------------------------------------------------
# CRT / rational reconstruction

# Miller-Rabin bases that decide every n < psi_13 (without 41 they fail at
# psi_12 = 318665857834031151167461)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_probable_prime(n):
    """Deterministic Miller-Rabin for n < psi_13 ~ 3.3 * 10^24 (fixed base
    set); ValueError above, unless a base divides n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _PSI_13:
        raise ValueError("%d is beyond the deterministic primality range" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Split primes are searched from here up.  Below 2^30 a residue is one
# digit of a CPython int, so products and remainders in pure Python take
# their fast paths; with 29-bit primes a CRT run still needs few of them.
SPLIT_FROM = 1 << 29


@lru_cache(maxsize=None)
def split_prime(n, after):
    """(p, powers): the least prime p = 1 mod n above `after`, and
    powers[r] = z^r mod p for r < n, where z is the first g^((p-1)/n),
    g = 2, 3, ..., of order n.  Phi_n is the product of the x - powers[c]
    mod p over the units c."""
    p = (after // n + 1) * n + 1
    while not is_probable_prime(p):
        p += n
    cofactors = [n // q for q in prime_factors(n)]
    g = 2
    while True:
        z = pow(g, (p - 1) // n, p)
        if all(pow(z, e, p) != 1 for e in cofactors):
            break
        g += 1
    powers = [1] * n
    for r in range(1, n):
        powers[r] = powers[r - 1] * z % p
    return p, tuple(powers)


def crt_pair(r1, m1, r2, m2):
    x = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


def symmetric_residue(r, m):
    r %= m
    return r - m if 2 * r > m else r


def rational_reconstruct(a, m):
    """(num, den) with a*den = num (mod m), |num|, 0 < den <= sqrt(m/2) and
    gcd(num, den) = 1, or None."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0 or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


# ---------------------------------------------------------------------------
# norms and inverses modulo a cyclotomic polynomial, exact via CRT

def cyclo_norm(nums, n, den=1):
    """Field norm from Q(zeta_n) of x = nums / den (nums the phi(n)
    integer numerators, den > 0), computed by CRT over split primes.

    At p = 1 mod n the norm of the primitive part g of nums is the product
    over the units c of sum_i g_i z^(i c) mod p, a sparse read of the powers
    of `split_prime`, since Phi_n is the product of the x - z^c there.  The
    residue is read symmetrically, so the run stops once the product of the
    primes exceeds twice the bound (sum |g_i|)^phi(n) on |N(g)|.
    """
    content = gcd(*nums)
    if content == 0:
        return Fraction(0)
    terms = [(i, c // content) for i, c in enumerate(nums) if c]
    deg = euler_phi(n)
    bound = 2 * sum(abs(g) for _, g in terms) ** deg + 1
    m, res, p = 1, 0, SPLIT_FROM
    while m <= bound:
        p, powers = split_prime(n, p)
        mod_p = [(i, g % p) for i, g in terms]
        rp = 1
        for c in units(n):
            rp = rp * sum(g * powers[i * c % n] for i, g in mod_p) % p
        res, m = crt_pair(res, m, rp, p), m * p
    return Fraction(symmetric_residue(res, m)) * Fraction(content, den) ** deg


def cyclo_inverse(nums, n):
    """(inv, den): the inverse of the nonzero element of Q(zeta_n) with
    integer numerators nums, as integer numerators over den > 0, via CRT
    modular inverses plus exact verification.  The inverses are taken at
    the split primes of `split_prime`, one at first and twice as many on
    each failed reconstruction, up to 512."""
    phi = cyclotomic_polynomial(n)
    degree = len(phi) - 1
    content = gcd(*nums)
    if content == 0:
        raise ZeroDivisionError("inverse of zero")
    prim = [c // content for c in nums]
    nprimes = 1
    p = SPLIT_FROM
    used = []
    residues = []
    while True:
        while len(used) < nprimes:
            p = split_prime(n, p)[0]
            fp = [c % p for c in phi]
            gp = fp_trim([c % p for c in prim])
            inv = _fp_inverse_mod(gp, fp, p)
            if inv is None:
                continue
            used.append(p)
            residues.append(inv + [0] * (degree - len(inv)))
        m, acc = 1, [0] * degree
        for p, vec in zip(used, residues):
            acc = [crt_pair(a, m, b, p) for a, b in zip(acc, vec)]
            m *= p
        recon = [rational_reconstruct(a, m) for a in acc]
        if None not in recon:
            # verify prim * out == d mod Phi_n, exactly
            d = lcm(*(q for _, q in recon))
            out = [r * (d // q) for r, q in recon]
            rem = int_rem_monic(int_poly_mul(prim, out), degree,
                                monic_lower_terms(phi))
            if rem == [d] + [0] * (degree - 1):
                return out, d * content
        nprimes *= 2
        if nprimes > 512:
            raise ArithmeticError("modular inverse reconstruction failed")


def _fp_inverse_mod(a, modulus, p):
    """Inverse of a mod modulus over F_p, or None if not coprime."""
    if not a:
        return None
    r0, r1 = list(modulus), list(a)
    s0, s1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        qs = fp_mul(q, s1, p)
        s2 = [( (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0) ) % p
              for i in range(max(len(s0), len(qs)))]
        s0, s1 = s1, fp_trim(s2)
    if len(r0) != 1:
        return None
    inv = pow(r0[0], -1, p)
    return [(c * inv) % p for c in s0]
