"""Reference numpy code of the exponent solver and its certificate.

This is how circdist solved and certified exponents before the library
dropped numpy, kept here only as an oracle: the solve as one least-squares
call on the mu x mu group matrix of log sigma_k(eps_n), the embeddings as a
product with a whole mu x phi table of zeta^(i c), the residues at a split
prime as int64 arrays (a Horner pass over every coefficient of u and one
vector power per exponent term), and the norm bound as float gathers of the
log table, one per term.
"""

from functools import lru_cache
from math import log

import numpy as np

import oracle_groupring
from circdist import groupring, polys
from circdist.groupring import group_reps


@lru_cache(maxsize=None)
def log_eps(n):
    half = np.arange(1, n // 2 + 1)
    out = np.zeros(n)
    out[half] = out[n - half] = 2.0 * np.log(2.0 * np.sin(np.pi * half / n))
    out.setflags(write=False)
    return out


def group_matrix(n):
    reps = np.array(group_reps(n, True))
    return log_eps(n)[np.outer(reps, reps) % n]


def lstsq_solve(n, logs, rcond=None):
    """The least-squares solution of least norm of the logarithmic system."""
    return np.linalg.lstsq(group_matrix(n), np.array(logs), rcond=rcond)[0]


def group_matrix_eigenvalues(n):
    """L^(chi) = sum_g L(g) chi(g) over G_n^+ for every character, by the
    flat index of `groupring.character_sums` (its first axis is numpy's
    last)."""
    orders, walk, _ = oracle_groupring.character_frame(n)
    vals = log_eps(n)[np.array(walk)]
    return np.fft.fftn(vals.reshape(orders[::-1] or (1,))).reshape(-1)


@lru_cache(maxsize=None)
def zeta_rows(n):
    reps = group_reps(n, True)
    powers = np.exp(2j * np.pi * np.arange(n) / n)
    table = powers[np.outer(reps, np.arange(polys.euler_phi(n))) % n]
    table.setflags(write=False)
    return reps, table


def double_embeddings(x):
    reps, table = zeta_rows(x.level)
    top = max(map(abs, x.nums))
    scaled = np.array([c / top for c in x.nums])
    vals = table @ scaled
    err = (len(scaled) + 2) * 2.0 ** -52 * float(np.abs(scaled).sum())
    return reps, vals, err, log(top) - log(x.den)


@lru_cache(maxsize=None)
def _residue_tables(n, p, z):
    """(units, z^c at each unit, eps(z^r) for every r mod n), each power of
    z taken afresh by pow."""
    powers = np.array([pow(z, r, p) for r in range(n)], dtype=np.int64)
    eps = (2 - powers - powers[(-np.arange(n)) % n]) % p
    units = groupring.units(n)
    tables = (np.array(units, dtype=np.int64),
              np.array([pow(z, c, p) for c in units], dtype=np.int64), eps)
    for t in tables:
        t.setflags(write=False)
    return tables


def _vpow(x, k, p):
    out = np.ones_like(x)
    while k:
        if k & 1:
            out = out * x % p
        k >>= 1
        if k:
            x = x * x % p
    return out


def residues_match(u, d, pos, neg, prime):
    n = u.level
    p, table = prime
    units, zc, eps = _residue_tables(n, p, table[1 % n])
    acc = np.zeros_like(zc)
    for c in reversed(u.nums):
        acc = (acc * zc + c % p) % p

    def times_eps_powers(acc, terms):
        for a, k in terms:
            acc = acc * _vpow(eps[units * a % n], k, p) % p
        return acc

    lhs = times_eps_powers(_vpow(acc, d, p), neg)
    rhs = times_eps_powers(np.full_like(zc, pow(u.den, d, p)), pos)
    return bool((lhs == rhs).all())


def log_abs_bounds(x):
    _, vals, err, shift = double_embeddings(x)
    return np.log(np.abs(vals) + 2.0 ** 10 * err) + shift


def norm_bound(u, d, pos, neg, abs_bounds=log_abs_bounds, slack=2.0 ** -24):
    """The float bound, with the moduli of u from `abs_bounds`, raised by
    `slack` times the terms' sizes to cover its own rounding."""
    n = u.level
    reps = np.array(group_reps(n, True))
    mult = np.where((2 * reps) % n == 0, 1, 2)
    leps = log_eps(n)
    la = d * (np.array(abs_bounds(u)) + log(u.den))
    lb = np.full_like(la, d * log(u.den))
    mag = np.abs(la) + np.abs(lb) + 2 * d
    for a, k in neg:
        t = float(k) * leps[reps * a % n]
        la, mag = la + t, mag + np.abs(t) + k
    for a, k in pos:
        t = float(k) * leps[reps * a % n]
        lb, mag = lb + t, mag + np.abs(t) + k
    per = log(2.0) + np.maximum(la, lb) + slack * (1.0 + mag)
    return float(mult @ per)
