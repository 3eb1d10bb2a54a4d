"""Reference exponent-identity checks for the differential tests.

`verify_exponent_identity` is the check circdist used before identities
were certified by split-prime residues and a norm bound, kept here only as
an oracle: a prescreen in F_p[t]/(Phi_n) at two fixed primes that can only
reject, then acceptance by the exact product u^d * eps^(d j^-) =
eps^(d j^+) in the field.  Its products reach thousands of bits at the
tower levels, so only small levels are affordable.

`residues_match` and `eps_log_sums` are the certificate's residue
comparison and eps log sums as they were before the eps side was read
around the exponent's most common coefficient: every term of d j at every
plus representative, O(mu * terms) per split prime.
"""

from functools import lru_cache

from circdist import cyclotomic, distributions, groupring, polys
from circdist.cyclotomic import LevelError, act, one
from circdist.groupring import eps_n, group_reps


def residues_match(u, d, pos, neg, prime):
    """A(zeta^c) = B(zeta^c) in F_p at each unit c, A = U^d eps^(d j^-) and
    B = D^d eps^(d j^+), with the eps side multiplied out over every term
    (a, k) of pos and neg at each plus representative c; prime is a tuple
    from `distributions._split_prime`, whose first three entries it reads."""
    n = u.level
    p, powers, eps = prime[:3]
    terms = [(i, v % p) for i, v in enumerate(u.nums) if v]

    def eps_side(c, side):
        acc = 1
        for a, k in side:
            acc = acc * pow(eps[c * a % n], k, p) % p
        return acc

    den = pow(u.den, d, p)
    real = cyclotomic.is_tau_fixed(u)
    for c in group_reps(n, True):
        lhs = eps_side(c, neg)
        rhs = den * eps_side(c, pos) % p
        for unit in ((c,) if real else (c, n - c)):
            acc = sum(v * powers[i * unit % n] for i, v in terms)
            if pow(acc, d, p) * lhs % p != rhs:
                return False
    return True


def eps_log_sums(n, terms):
    """sum k ceil(2^48 log sigma_(c a)(eps_n)) over the terms (a, k) at each
    plus representative c: one product of the unshifted weights with the
    table of ceilings."""
    keys = groupring._inverse_keys(n)
    at = groupring._unit_positions(n, True)
    return groupring._product(n, True, [(keys[at[a]], k) for a, k in terms],
                              distributions._log_eps_ceilings(n))


def fp_powmod(base, e, modulus, p):
    """base^e mod modulus over F_p (e >= 0)."""
    result = [1]
    base = polys.fp_divmod(base, modulus, p)[1]
    while e:
        if e & 1:
            result = polys.fp_divmod(polys.fp_mul(result, base, p), modulus, p)[1]
        e >>= 1
        if e:
            base = polys.fp_divmod(polys.fp_mul(base, base, p), modulus, p)[1]
    return result


@lru_cache(maxsize=None)
def _eps(n):
    return eps_n(n)


def _modular_power_check(u, d, pos, neg, n, prime):
    """Compare u^d * eps^(d j_neg) and eps^(d j_pos) in F_p[t]/(Phi_n); a
    mismatch proves inequality, a match proves nothing by itself."""
    phi = [c % prime for c in polys.cyclotomic_polynomial(n)]
    deg = len(phi) - 1

    def to_fp(x):
        if x.den % prime == 0:
            return None       # bad prime for this element; skip the prescreen
        inv = pow(x.den, -1, prime)
        return polys.fp_trim([c * inv % prime for c in x.nums])

    def galois_fp(poly, a):
        long = [0] * n
        for i, c in enumerate(poly):
            if c:
                long[(i * a) % n] += c
        acc = [v % prime for v in long]
        return polys.fp_divmod(acc, phi, prime)[1] if len(acc) > deg else polys.fp_trim(acc)

    def power_side(base_fp, terms):
        acc = [1]
        for a, k in terms:
            conj = galois_fp(base_fp, a)
            acc = polys.fp_divmod(polys.int_poly_mul(acc, fp_powmod(conj, k, phi, prime)),
                                  phi, prime)[1]
            acc = polys.fp_trim([c % prime for c in acc])
        return acc

    ufp = to_fp(u)
    efp = to_fp(_eps(n))
    if ufp is None or efp is None:
        return None
    lhs = fp_powmod(ufp, d, phi, prime)
    lhs = polys.fp_divmod(polys.int_poly_mul(lhs, power_side(efp, neg)), phi, prime)[1]
    lhs = polys.fp_trim([c % prime for c in lhs])
    rhs = power_side(efp, pos)
    return lhs == rhs


def verify_exponent_identity(u, j):
    """Exact test of u = eps_n^j in Q (x) V(n): with d clearing denominators
    of j, checks u^d * eps^(d j^-) = eps^(d j^+) in the field.  Cheap modular
    rejection first; acceptance always goes through full rational arithmetic."""
    n = u.level
    if j.level != n or not j.plus:
        raise LevelError("exponent must live in Q[G_n^+]")
    d, jd = j.scaled_integral()
    pos, neg = [], []
    for r, c in jd.coeffs:
        k = int(c)
        if k > 0:
            pos.append((r, k))
        else:
            neg.append((r, -k))
    for prime in (1000003, 1000033):
        res = _modular_power_check(u, d, pos, neg, n, prime)
        if res is False:
            return False
    eps = _eps(n)
    lhs = u ** d
    for a, k in neg:
        lhs = lhs * act(a, eps) ** k
    rhs = one(n)
    for a, k in pos:
        rhs = rhs * act(a, eps) ** k
    return lhs == rhs
