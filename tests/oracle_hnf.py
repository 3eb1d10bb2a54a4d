"""Reference Hermite normal form for the differential tests.

This is the echelonization circdist used before basis rows were reduced as
each pivot was set, kept here only as an oracle: rows are eliminated with
divisions and xgcd steps alone, and entries above the pivots are reduced
once, at the end.  Its entries can grow without bound during elimination,
so only small inputs are affordable.  The kernels and the saturation are
derived from it exactly as circdist derived them before kernels came
from the HNF of [rows | I]: from the tracked transform, the kernel rows
brought to HNF afterwards.  `bareiss_det`, the fraction-free determinant
that lattice indices came from before they were read off the pivots, is
kept as a reference too.
"""

from bisect import bisect_left

from circdist.intlinalg import transpose, xgcd


def _echelonize(rows, track):
    basis = []        # echelon rows, kept sorted by pivot column
    pivcol = []       # pivot column of each basis row
    tbasis = [] if track else None
    kernel = [] if track else None
    nrows = len(rows)
    for idx, row0 in enumerate(rows):
        vec = list(row0)
        uvec = [0] * nrows if track else None
        if track:
            uvec[idx] = 1
        n = len(vec)
        j = 0
        while True:
            while j < n and vec[j] == 0:
                j += 1
            if j == n:
                if track:
                    kernel.append(uvec)
                break
            pos = bisect_left(pivcol, j)
            if pos == len(pivcol) or pivcol[pos] != j:
                basis.insert(pos, vec)
                pivcol.insert(pos, j)
                if track:
                    tbasis.insert(pos, uvec)
                break
            brow = basis[pos]
            a, b = brow[j], vec[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, n):
                    vec[jj] -= q * brow[jj]
                if track:
                    burow = tbasis[pos]
                    for k in range(nrows):
                        uvec[k] -= q * burow[k]
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                for jj in range(j, n):
                    aa, bb = brow[jj], vec[jj]
                    brow[jj] = x * aa + y * bb
                    vec[jj] = -bg * aa + ag * bb
                if track:
                    burow = tbasis[pos]
                    for k in range(nrows):
                        aa, bb = burow[k], uvec[k]
                        burow[k] = x * aa + y * bb
                        uvec[k] = -bg * aa + ag * bb
    return basis, pivcol, tbasis, kernel


def _reduce_above(basis, pivcol):
    for i in range(len(basis)):
        j = pivcol[i]
        if basis[i][j] < 0:
            basis[i] = [-v for v in basis[i]]
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]


def hnf(rows):
    basis, pivcol, _, _ = _echelonize(rows, track=False)
    _reduce_above(basis, pivcol)
    return [list(r) for r in basis]


def left_kernel(rows):
    if not rows:
        return []
    _, _, _, kernel = _echelonize(rows, track=True)
    return hnf(kernel)


def right_kernel(rows, ncols):
    if not rows:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    return left_kernel(transpose(rows, ncols))


def saturate(rows, ncols):
    if not rows:
        return []
    return right_kernel(right_kernel(rows, ncols), ncols)


def bareiss_det(rows):
    """Determinant of a square integer matrix (fraction-free elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
