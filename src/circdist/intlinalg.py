"""Exact integer and rational linear algebra on small dense matrices.

Matrices are lists of rows, rows are lists of Python ints, and a rational
vector is integer numerators over one denominator.  Everything is exact; no
floating point enters here.  There is one elimination, the row-style
Hermite normal form, and every other lattice answer is read off a canonical
HNF: the left kernel of rows from the HNF of [rows | I], whose rows with a
zero first block are the kernel's own HNF (no transform is kept); the
saturation, which is the HNF itself when every pivot is 1 and otherwise the
right kernel of the right kernel; the index of one lattice in another from
their pivots; and the coset decomposition used to pick integral (or
p-integral) representatives modulo a saturated lattice.  congruence_hnf
writes down the HNF of a single-congruence lattice {c : c . e = 0 mod N}
with no elimination.

Conventions:
  * HNF is row-style and canonical: pivots positive, entries above a pivot
    reduced into [0, pivot), rows ordered by pivot column, no zero rows.
  * Kernels are full: the returned rows span {v : v . M = 0} exactly (the
    lattice is saturated by construction), not just a finite-index sublattice.
  * Entries stay bounded during elimination: each basis row is reduced as
    soon as its pivot is set (Kannan and Bachem, SIAM J. Comput. 8, 1979),
    not only once at the end.  Unreduced, the echelon form of the 72 x 73
    kernel behind annihilator_mu(111), whose entries have 7 bits, reaches
    entries of 427,045 bits.
"""

from bisect import bisect_left
from math import gcd, prod


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _echelonize(rows):
    """Canonical row HNF of integer rows by unimodular row operations.

    Returns (basis, pivcol): the nonzero HNF rows, with strictly increasing
    pivot columns pivcol.  Each basis row is normalized (see _settle) as
    soon as it is inserted or changed, so basis entries stay bounded by the
    pivots instead of growing with every elimination step; one pass at the
    end reduces the entries that _settle left above later pivots.
    """
    basis = []        # echelon rows, kept sorted by pivot column
    pivcol = []       # pivot column of each basis row
    for row0 in rows:
        vec = list(row0)
        n = len(vec)
        j = 0
        while True:
            while j < n and vec[j] == 0:
                j += 1
            if j == n:
                break
            # find basis row with this pivot column, if any
            pos = bisect_left(pivcol, j)
            if pos == len(pivcol) or pivcol[pos] != j:
                basis.insert(pos, vec)
                pivcol.insert(pos, j)
                _settle(basis, pivcol, pos)
                break
            brow = basis[pos]
            a, b = brow[j], vec[j]
            if b % a == 0:
                _axpy(vec, -(b // a), brow, j)
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                basis[pos] = [x * aa + y * bb for aa, bb in zip(brow, vec)]
                vec = [ag * bb - bg * aa for aa, bb in zip(brow, vec)]
                _settle(basis, pivcol, pos)
            # vec now has a zero at column j; continue reducing
    # _settle reduces a row at one pivot column, which changes its entries
    # at later pivot columns: reduce every row above each pivot once more
    for i, j in enumerate(pivcol):
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                _axpy(basis[k], -q, basis[i], j)
    return basis, pivcol


def _axpy(row, q, other, start=0):
    """row += q * other, in place, from column start on (other is zero before)."""
    row[start:] = [a + q * b for a, b in zip(row[start:], other[start:])]


def _settle(basis, pivcol, pos):
    """Normalize basis row pos after it was inserted or changed: make its
    pivot positive, reduce it by the rows below it, and reduce the rows
    above it at its pivot column."""
    j = pivcol[pos]
    if basis[pos][j] < 0:
        basis[pos] = [-v for v in basis[pos]]
    for k in range(pos + 1, len(basis)):
        c = pivcol[k]
        q = basis[pos][c] // basis[k][c]
        if q:
            _axpy(basis[pos], -q, basis[k], c)
    p = basis[pos][j]
    for k in range(pos):
        q = basis[k][j] // p
        if q:
            _axpy(basis[k], -q, basis[pos], j)


def hnf(rows):
    """Canonical row Hermite normal form; zero rows dropped."""
    return _echelonize(rows)[0]


def left_kernel(rows):
    """Basis (canonical HNF) of {v in Z^r : v . rows = 0}; full/saturated.

    The HNF of [rows | I] is U [rows | I] = [U rows | U] for a unimodular
    U, so its rows whose first block is zero, cut to the second block, span
    the whole kernel, and are its canonical HNF already."""
    if not rows:
        return []
    c = len(rows[0])
    r = len(rows)
    aug = [list(row) + [0] * r for row in rows]
    for i, row in enumerate(aug):
        row[c + i] = 1
    basis, pivcol = _echelonize(aug)
    return [row[c:] for row, j in zip(basis, pivcol) if j >= c]


def congruence_hnf(coeffs, modulus):
    """Canonical HNF of {c in Z^mu : sum_i c_i coeffs[i] = 0 mod modulus},
    built row by row without elimination.

    With g_i = gcd(coeffs[i:], modulus) (so g_mu = modulus), row i has pivot
    d_i = g_(i+1) / g_i: the least c_i that the later columns can complete.
    Starting from the residue T = -d_i e_i still to be cancelled, each later
    column k with d_k > 1 takes the unique t_k in [0, d_k) with
    t_k e_k = T (mod g_(k+1)), which leaves T = 0 mod g_(k+1); columns with
    d_k = 1 stay 0.  Every row is checked to satisfy the congruence, and
    prod d_i = modulus / g_0 is the index of the lattice, so the rows span
    it; being upper triangular with reduced entries they are its canonical
    HNF.
    """
    mu = len(coeffs)
    e = [c % modulus for c in coeffs]
    g = [modulus] * (mu + 1)
    for i in range(mu - 1, -1, -1):
        g[i] = gcd(e[i], g[i + 1])
    d = [g[i + 1] // g[i] for i in range(mu)]
    # (column, (e_k / g_k)^-1 mod d_k) for the columns with d_k > 1
    steps = [(k, pow(e[k] // g[k], -1, d[k])) for k in range(mu) if d[k] > 1]
    rows = []
    for i in range(mu):
        row = [0] * mu
        row[i] = d[i]
        t_res = -d[i] * e[i] % modulus
        for k, inv in steps:
            if k > i:
                t = t_res // g[k] * inv % d[k]
                if t:
                    row[k] = t
                    t_res = (t_res - t * e[k]) % modulus
        if t_res:
            raise ArithmeticError("congruence HNF row %d misses the congruence" % i)
        rows.append(row)
    return rows


def transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def right_kernel(rows, ncols):
    """Basis (canonical HNF) of {x in Z^ncols : rows . x = 0}; full/saturated."""
    if not rows:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    return left_kernel(transpose(rows, ncols))


def saturate(rows, ncols):
    """Saturation (Q-span intersected with Z^ncols) of the row lattice, in
    canonical HNF.  The lattice's index in its saturation divides the
    product of its HNF pivots: when every pivot is 1 the pivot columns carry
    an identity block, so the HNF is saturated already and is returned.
    Otherwise the saturation is the right kernel of its right kernel."""
    h, pivcol = _echelonize(rows)
    if all(row[j] == 1 for row, j in zip(h, pivcol)):
        return h
    return right_kernel(right_kernel(h, ncols), ncols)


def _pivot(row):
    """Leading (pivot) entry of a nonzero HNF row."""
    return next(a for a in row if a)


def _check_length(hnf_rows, v):
    if hnf_rows and len(v) != len(hnf_rows[0]):
        raise ValueError("vector of length %d for rows of length %d"
                         % (len(v), len(hnf_rows[0])))


def hnf_contains(hnf_rows, vec):
    """Membership of an integer vector in the lattice spanned by HNF rows
    (ValueError when the lengths differ)."""
    return hnf_coords(hnf_rows, vec) is not None


def hnf_coords(hnf_rows, vec):
    """Integer coordinates of vec on the HNF rows, or None if not a member
    (ValueError when the lengths differ)."""
    v = list(vec)
    _check_length(hnf_rows, v)
    coords = []
    for row in hnf_rows:
        j = next(k for k, a in enumerate(row) if a)
        if v[j] % row[j]:
            return None
        q = v[j] // row[j]
        coords.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return coords


def lattice_index(sub_hnf, super_hnf):
    """Index [super : sub] for lattices in canonical HNF of equal rank, sub
    contained in super.  The two span one Q-space, so they share their pivot
    columns and are triangular there: the index is the quotient of the
    pivot products."""
    if len(sub_hnf) != len(super_hnf):
        raise ValueError("lattices have different ranks")
    if not all(hnf_contains(super_hnf, row) for row in sub_hnf):
        raise ValueError("sub-lattice is not contained in super-lattice")
    return prod(map(_pivot, sub_hnf)) // prod(map(_pivot, super_hnf))


def coset_reduce(sat_hnf, nums, den=1):
    """Canonical representative of nums / den modulo the saturated lattice
    spanned by the HNF rows sat_hnf, as (numerators, denominator) with
    denominator > 0 and gcd(denominator, *numerators) = 1.

    The rows are eliminated in pivot order: each clears the representative's
    entry at its pivot column, where every later row is zero.  The
    representative is supported on the non-pivot columns; because the
    lattice is saturated, its coordinates there decide exactly whether the
    coset contains an integral (resp. p-integral) vector.
    """
    rep = list(nums)
    pivots = []
    for row in sat_hnf:
        j = next(k for k, a in enumerate(row) if a)
        pivots.append(j)
        c = rep[j]
        if c:
            # rep / den - (c / row[j]) row, over den * row[j] / g
            g = gcd(c, row[j])
            s, t = row[j] // g, c // g
            rep[j:] = [s * r - t * b for r, b in zip(rep[j:], row[j:])]
            if s != 1:
                rep[:j] = [s * r for r in rep[:j]]
                den *= s
    if any(rep[j] for j in pivots):
        raise ArithmeticError("coset representative is not zero on the pivot columns")
    g = gcd(den, *rep)
    if g != 1:
        rep = [r // g for r in rep]
        den //= g
    return rep, den
