"""Reference field arithmetic for the differential tests.

This is the arithmetic circdist used before elements became integer
numerators over one denominator, kept here only as an oracle: elements as
tuples of Fractions, products as four non-negative Kronecker products packed
through ``bytes.join``, and reduction modulo Phi_n through a dense table of
the rows z^j mod Phi_n for phi(n) <= j < n.  `lower_level_coeffs` is the
descent as it was before it went one prime at a time by relative traces: a
change to the basis z_m^j z_n^i, solved by Fraction Gauss-Jordan
elimination (`gauss_solve`).  Every field function returns the coefficient
tuple of its result, except `valuation_at_p`: the valuation at a
prime-power level as it was computed before it came from the norm (and
later from a Taylor shift), by dividing by 1 - zeta until the residue mod p
no longer vanishes.

Also kept as references: the Fraction `coset_reduce` (one triangular solve
on the pivot columns) that the integer forward elimination replaced; the
norm as a resultant, `fp_resultant` by the Euclidean remainder sequence
over 29-bit CRT primes, which the split-prime evaluation replaced; Phi_n
by divisor quotients, and the radical of Phi_n mod l by squarefree
factorisation over F_l (`fp_squarefree_part`), which the recursion on the
largest prime and the closed form Phi_m mod l (l not dividing m) replaced.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, log

from circdist import polys
from circdist.cyclotomic import (LevelError, SubfieldError, inverse, one,
                                 reduce_mod_ell, relative_galois_group, zeta)


# ---------------------------------------------------------------------------
# integer products


def _kron_pack(a, width):
    # little-endian fixed-width chunks; coefficients must be >= 0
    nbytes = width // 8
    return int.from_bytes(
        b"".join(int(c).to_bytes(nbytes, "little") for c in a), "little")


def _kron_unpack(v, width, count):
    nbytes = width // 8
    data = int(v).to_bytes(nbytes * count + nbytes, "little")
    return [int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "little")
            for i in range(count)]


def _nonneg_mul(a, b, width, count):
    if not a or not b:
        return [0] * count
    return _kron_unpack(_kron_pack(a, width) * _kron_pack(b, width), width, count)


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
    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    bound = amax * bmax * min(la, lb) + 1
    width = ((bound.bit_length() + 8) // 8) * 8
    ap = [c if c > 0 else 0 for c in a]
    an = [-c if c < 0 else 0 for c in a]
    bp = [c if c > 0 else 0 for c in b]
    bn = [-c if c < 0 else 0 for c in b]
    pp = _nonneg_mul(ap, bp, width, count)
    nn = _nonneg_mul(an, bn, width, count)
    pn = _nonneg_mul(ap, bn, width, count)
    np_ = _nonneg_mul(an, bp, width, count)
    return [pp[i] + nn[i] - pn[i] - np_[i] for i in range(count)]


# ---------------------------------------------------------------------------
# dense reduction table


@lru_cache(maxsize=None)
def reduction_table(n):
    """{j: coefficients of z^j mod Phi_n} for phi(n) <= j < n."""
    phi_poly = polys.cyclotomic_polynomial(n)
    degree = len(phi_poly) - 1
    red = {}
    if degree < n:
        row = [-c for c in phi_poly[:-1]]
        red[degree] = tuple(row)
        for j in range(degree + 1, n):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                for i in range(degree):
                    row[i] -= top * phi_poly[i]
            red[j] = tuple(row)
    return red


def reduce_int_vec(n, vec):
    """Reduce an integer coefficient vector of any length mod Phi_n."""
    deg = polys.euler_phi(n)
    table = reduction_table(n)
    folded = [0] * min(len(vec), n)
    for j, c in enumerate(vec):
        if c:
            folded[j % n] += c
    out = folded[:deg] + [0] * (deg - len(folded))
    for j in range(deg, len(folded)):
        c = folded[j]
        if c:
            row = table[j]
            for i in range(deg):
                out[i] += c * row[i]
    return out


# ---------------------------------------------------------------------------
# exact rational elimination


def gauss_solve(mat, rhs):
    """Solve mat . x = rhs exactly over Q.  mat is m x n (rows), rhs length m.

    Returns one solution (free variables set to 0) or None if inconsistent.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    piv_of_col = {}
    r = 0
    for c in range(n):
        p = None
        for i in range(r, m):
            if a[i][c]:
                p = i
                break
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        piv_of_col[c] = r
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    x = [Fraction(0)] * n
    for c, i in piv_of_col.items():
        x[c] = a[i][n]
    return x


def solve_upper_triangular(mat, rhs):
    """Solve y . mat = rhs for square mat with nonzero diagonal, exact."""
    n = len(mat)
    y = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(rhs[i])
        for k in range(i + 1, n):
            s -= y[k] * mat[k][i]
        y[i] = s / mat[i][i]
    return y


def coset_reduce(sat_hnf, vec):
    """Canonical representative, as Fractions, of vec modulo the saturated
    lattice spanned by the HNF rows sat_hnf: the coordinates on the rows
    come from one triangular solve on the pivot columns."""
    if not sat_hnf:
        return [Fraction(v) for v in vec]
    pivots = [next(k for k, a in enumerate(row) if a) for row in sat_hnf]
    # alpha . B restricted to pivot columns is upper triangular
    tri = [[row[p] for p in pivots] for row in sat_hnf]
    rhs = [Fraction(vec[p]) for p in pivots]
    alpha = solve_upper_triangular(tri, rhs)
    rep = [Fraction(v) for v in vec]
    for a, row in zip(alpha, sat_hnf):
        if a:
            rep = [r - a * b for r, b in zip(rep, row)]
    if any(rep[p] for p in pivots):
        raise ArithmeticError("coset representative is not zero on the pivot columns")
    return rep


# ---------------------------------------------------------------------------
# cyclotomic polynomials by divisor quotients, radicals over F_p


@lru_cache(maxsize=None)
def _cyclotomic_squarefree(n):
    # Phi_n for squarefree n by the quotient recursion on proper divisors
    num = [0] * n + [1]
    num[0] = -1                      # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = polys.int_poly_mul(den, cyclotomic_polynomial(d))
    return tuple(polys.int_poly_divexact(num, den))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Phi_n as (x^n - 1) over the product of Phi_d, d < n, at squarefree
    n, and Phi_n(x) = Phi_rad(n)(x^(n/rad)) elsewhere."""
    if n == 1:
        return (-1, 1)
    rad = 1
    for p in polys.prime_factors(n):
        rad *= p
    if rad == n:
        return _cyclotomic_squarefree(n)
    base = cyclotomic_polynomial(rad)
    step = n // rad
    out = [0] * ((len(base) - 1) * step + 1)
    for i, c in enumerate(base):
        out[i * step] = c
    return tuple(out)


def fp_gcd(a, b, p):
    a, b = polys.fp_trim(list(a)), polys.fp_trim(list(b))
    while b:
        a, b = b, polys.fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def fp_deriv(a, p):
    return polys.fp_trim([(i * c) % p for i, c in enumerate(a)][1:])


def fp_squarefree_part(a, p):
    """Radical of a over F_p: the monic product of its distinct irreducible
    factors.  Handles multiplicities divisible by p (where a' may vanish)
    by peeling off the p-th-power part and recursing on its p-th root."""
    a = polys.fp_trim(list(a))
    if len(a) <= 1:
        return [1]
    inv = pow(a[-1], -1, p)
    a = [(c * inv) % p for c in a]
    da = fp_deriv(a, p)
    if not da:
        # a = s(x^p) = (s(x))^p by Frobenius; radical(a) = radical(s)
        return fp_squarefree_part(a[::p], p)
    d = fp_gcd(a, da, p)
    if len(d) == 1:
        return a
    w, r = polys.fp_divmod(a, d, p)   # factors with multiplicity prime to p
    if r:
        raise ArithmeticError("gcd(a, a') does not divide a over F_%d" % p)
    # strip w-factors from d; what remains is the p-th-power part of a
    y = d
    while True:
        g = fp_gcd(y, w, p)
        if len(g) == 1:
            break
        y, r = polys.fp_divmod(y, g, p)
        if r:
            raise ArithmeticError("gcd(y, w) does not divide y over F_%d" % p)
    if len(y) == 1:
        return w
    return polys.fp_mul(w, fp_squarefree_part(y[::p], p), p)


@lru_cache(maxsize=None)
def phi_radical(n, ell):
    """Radical of Phi_n mod ell, by `fp_squarefree_part`."""
    return tuple(fp_squarefree_part([c % ell for c in cyclotomic_polynomial(n)], ell))


def vanishes_at_all_primes_above(x, ell):
    """The residue of x mod ell (`reduce_mod_ell`) is divisible by the
    radical of Phi_n mod ell."""
    res = reduce_mod_ell(x, ell)
    return not res or not polys.fp_divmod(res, phi_radical(x.level, ell), ell)[1]


# ---------------------------------------------------------------------------
# norms by resultants over F_p


def fp_resultant(f, g, p):
    """Res(f, g) over F_p by the Euclidean remainder sequence."""
    f, g = polys.fp_trim(list(f)), polys.fp_trim(list(g))
    if not f or not g:
        return 0
    res = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return (res * pow(g[0], df, p)) % p
        _, r = polys.fp_divmod(f, g, p)
        r = polys.fp_trim(r)
        if not r:
            return 0
        dr = len(r) - 1
        res = (res * pow(g[dg], df - dr, p) * pow(-1, df * dg, p)) % p
        f, g = g, r


def _primes_above(start):
    """The odd primes above start, ascending."""
    p = start | 1
    while True:
        p += 2
        if polys.is_probable_prime(p):
            yield p


def cyclo_norm(coeffs, n, log_bound=None):
    """The field norm from Q(zeta_n) as Res(Phi_n, x) by CRT over 29-bit
    primes, with the stop rule of `polys.cyclo_norm`."""
    phi = list(polys.cyclotomic_polynomial(n))
    deg = len(phi) - 1
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    nums = [int(c * den) for c in coeffs]
    content = gcd(*nums)
    if content == 0:
        return Fraction(0)
    prim = [c // content for c in nums]
    s = sum(abs(c) for c in prim)
    bound = 2 * max(1, s) ** deg + 1
    stop = float("inf")
    if log_bound is not None:
        terms = (log_bound, deg * log(den), -deg * log(content))
        stop = (log(2.0) + sum(terms)
                + 2.0 ** -24 * (1.0 + sum(map(abs, terms))))
    m = 1
    res = 0
    for p in _primes_above(1 << 29):
        fp = [c % p for c in phi]
        gp = polys.fp_trim([c % p for c in prim])
        rp = fp_resultant(fp, gp, p)
        if m == 1:
            res, m = rp, p
        else:
            res, m = polys.crt_pair(res, m, rp, p), m * p
        if m > bound or log(m) > stop:
            break
    return Fraction(polys.symmetric_residue(res, m)) * Fraction(content, den) ** deg


# ---------------------------------------------------------------------------
# field operations on Fraction tuples


def _clear_denominators(coeffs):
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [int(c * den) for c in coeffs], den


def mul(x, y):
    """Coefficients of x * y."""
    na, da = _clear_denominators(x.coeffs)
    nb, db = _clear_denominators(y.coeffs)
    red = reduce_int_vec(x.level, int_poly_mul(na, nb))
    d = da * db
    return tuple(Fraction(c, d) for c in red)


def _scatter(coeffs, m, step):
    nums, den = _clear_denominators(coeffs)
    long = [0] * m
    for i, c in enumerate(nums):
        if c:
            long[(i * step) % m] += c
    return tuple(Fraction(c, den) for c in reduce_int_vec(m, long))


def act(a, x):
    """Coefficients of sigma_a(x), a a unit mod x.level."""
    n = x.level
    a %= n
    if n <= 2 or a == 1:
        return tuple(x.coeffs)
    return _scatter(x.coeffs, n, a)


def raise_level(x, m):
    """Coefficients of x embedded at level m."""
    return _scatter(x.coeffs, m, m // x.level)


def lower_level_coeffs(level, coeffs, n):
    """Coefficients at level n of the level-``level`` element; raises
    SubfieldError when it does not lie in Q(zeta_n)."""
    m = level
    if m == n:
        return tuple(coeffs)
    if m % n:
        raise LevelError("%d does not divide %d" % (n, m))
    d = m // n
    phim, phin = polys.euler_phi(m), polys.euler_phi(n)
    big = phim // phin
    table = reduction_table(m)
    unit_of_coord = {}
    dense = []
    pairs = []
    for j in range(big):
        for i in range(phin):
            e = j + d * i
            pairs.append((j, i, e))
            if e < phim:
                unit_of_coord[e] = len(pairs) - 1
            else:
                dense.append((len(pairs) - 1, e))
    out_coeffs = {}
    if dense:
        rows = []
        rhs = []
        free_coords = [k for k in range(phim) if k not in unit_of_coord]
        for k in free_coords:
            rows.append([Fraction(table[e][k]) for _, e in dense])
            rhs.append(coeffs[k])
        sol = gauss_solve(rows, rhs)
        if sol is None:
            raise SubfieldError("element is not in the level-%d subfield" % n)
        for (idx, _), v in zip(dense, sol):
            out_coeffs[idx] = v
    for k, idx in unit_of_coord.items():
        v = coeffs[k]
        for (didx, e) in dense:
            c = out_coeffs[didx]
            if c:
                v -= c * table[e][k]
        out_coeffs[idx] = v
    out = [Fraction(0)] * phin
    for (j, i, _), idx in zip(pairs, range(len(pairs))):
        c = out_coeffs.get(idx, Fraction(0))
        if j == 0:
            out[i] = c
        elif c:
            raise SubfieldError("element is not in the level-%d subfield" % n)
    return tuple(out)


def lower_level(x, n):
    return lower_level_coeffs(x.level, x.coeffs, n)


def norm_down(x, n):
    """Coefficients of the norm of x from x.level to level n."""
    m = x.level
    prod = (Fraction(1),) + (Fraction(0),) * (polys.euler_phi(m) - 1)
    for a in relative_galois_group(m, n):
        conj = act(a % m if m > 1 else 1, x)
        na, da = _clear_denominators(prod)
        nb, db = _clear_denominators(conj)
        red = reduce_int_vec(m, int_poly_mul(na, nb))
        prod = tuple(Fraction(c, da * db) for c in red)
    return lower_level_coeffs(m, prod, n)


# ---------------------------------------------------------------------------
# valuation at the prime above p, by repeated division


@lru_cache(maxsize=None)
def _pi_inverse(n):
    return inverse(one(n) - zeta(n))


def valuation_at_p(x, p):
    """Valuation of the nonzero x at level p^k: divide den x by 1 - zeta
    while Res(Phi_n, den x) vanishes mod p, less phi(n) v_p(den)."""
    n = x.level
    den = x.den
    y = x * den
    vden = 0
    while den % p == 0:
        den //= p
        vden += 1
    phi_mod = [c % p for c in polys.cyclotomic_polynomial(n)]
    v = 0
    while True:
        res = polys.fp_trim([c % p for c in y.nums])
        if fp_resultant(phi_mod, res, p) != 0:
            break
        y = y * _pi_inverse(n)
        if not y.is_integral():
            raise ArithmeticError("division by 1 - zeta left the integers")
        v += 1
    return v - polys.euler_phi(n) * vden
