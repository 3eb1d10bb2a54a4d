"""Finite-level distribution tables on roots of unity.

A table assigns to every level n in a divisor-closed support a nonzero value
in Q(zeta_n)^x; Galois equivariance extends it to all roots of unity whose
order lies in the support.  The distinguished generators are the table
n -> 1 - z_n and the +-1-valued tables supported on odd-prime conductors.

Verification is exact: the norm relations couple one level to the next via
field norms, the strictness congruences reduce to divisibility by the
radical of the cyclotomic polynomial at the residue prime, and exponent
solving against eps_n = (1 - z_n)^(1+tau) combines a numeric logarithmic
solve with continued-fraction reconstruction and a certified power-identity
check that never accepts an unverified answer.

The logarithmic system is a group matrix of G_n^+, so it is solved in the
character basis: per level, one mixed-radix DFT over G_n^+
(`groupring.character_sums`) gives the eigenvalues of log eps_n and the
characters of e_n, and each solve is one transform of the logs of u, one
division by the eigenvalues where e_n is 1 and one transform back.  After
the float solve the solver works in integers alone: the reconstruction
rounds each coordinate's exact binary value, each candidate j takes one
certificate, as j e_n, and the representative modulo the annihilator comes
from integer elimination.

The power identity u^d eps^(d j^-) = eps^(d j^+) is certified without
forming it in the field.  It is compared modulo split primes p = 1 mod n,
where it becomes phi(n) scalar equations in F_p, read off the one table of
the powers of zeta mod p (`polys.split_prime`): eps(zeta^r) is
2 - zeta^r - zeta^-r, and eps^N, N the sum of G_n^+, the integer Phi_n(1).
Any mismatch is a proof of inequality.  Matches at primes with product P
prove equality once phi(n) log P exceeds an upper bound on the log of the
norm of the difference of the two sides, since a nonzero algebraic integer
divisible by P has norm at least P^phi(n).  Error model: the residues are
exact integer arithmetic, and so is the comparison: each log it reads from
a double (log 2, log D, the moduli of u, the table log sigma_r(eps_n) and
log p) becomes an integer bound in units of 2^-48 by one rule
(`_log_units`), and every sum, product and maximum after that is exact.  An
overestimate of the norm bound only costs more primes.

All embeddings come from the one evaluator in `cyclotomic`: the solver
takes its positivity verdict and its logarithms from `embedding_logs` (one
evaluation of u, interval arithmetic wherever doubles cannot read a value),
and the norm bound takes moduli from the same double-precision pass, which
is kept on u itself (`cyclotomic.double_embeddings`).  The
table log sigma_k(eps_n) = 2 log|2 sin(pi k / n)| (`groupring._log_eps`)
is built once per level and serves both.  The library uses Python floats
and integers alone.
"""

from functools import lru_cache
from math import ceil, floor, gcd, lcm, ldexp, log
from operator import mul

from . import cyclotomic, groupring, intlinalg, polys
from .cyclotomic import (LevelError, _Value, act, cyc_from_json, cyc_to_json,
                         norm_down, one, raise_level, sigma_ell,
                         vanishes_at_all_primes_above, zeta)
from .groupring import (GroupRingElt, _log_eps, _times_e_n, annihilator_In_formula,
                        grelt, group_reps, idempotent_e_n)


class SupportError(ValueError):
    """Support set is not divisor-closed above 1 or misses required levels."""


class SolveError(ArithmeticError):
    """Exponent solving failed in a way that cannot be reported as a value."""


def divisor_closure(levels):
    """All divisors > 1 of the given levels, as a sorted tuple."""
    out = set()
    for n in levels:
        if n < 1:
            raise SupportError("levels must be >= 1")
        for d in range(2, n + 1):
            if n % d == 0:
                out.add(d)
    return tuple(sorted(out))


def is_divisor_closed(support):
    """True iff every level of support is >= 2 and every divisor d > 1 of
    it is a level too.  By induction it suffices that n // q is one for
    each prime q | n with n // q > 1: a divisor 1 < d < n of n divides
    n // q for a prime q | n / d."""
    s = set(support)
    return all(n >= 2 and all(n // q in s for q in polys.prime_factors(n) if n // q > 1)
               for n in s)


class DistTable(_Value):
    """Map from a divisor-closed support to nonzero cyclotomic values:
    ``values`` is the tuple of (n, CycElt) pairs aligned with ``support``."""

    __slots__ = ("support", "values")

    @classmethod
    def from_dict(cls, values):
        support = tuple(sorted(values))
        if not is_divisor_closed(support):
            raise SupportError("support is not divisor-closed above 1")
        vals = []
        for n in support:
            v = values[n]
            if v.level != n:
                raise LevelError("value at %d has level %d" % (n, v.level))
            if v.is_zero():
                raise ValueError("table values must be nonzero")
            vals.append((n, v))
        return cls(support, tuple(vals))

    def value(self, n):
        for m, v in self.values:
            if m == n:
                return v
        raise KeyError("level %d is not in the support" % n)

    def as_dict(self):
        return dict(self.values)

    def value_at_root(self, level, k):
        """Value at the root z_level^k (k nonzero mod level), by equivariance."""
        g = gcd(k, level)
        order = level // g
        if order < 2:
            raise ValueError("the trivial root is outside the domain")
        return act((k // g) % order, self.value(order))

    def to_json(self):
        return {"support": list(self.support),
                "values": {str(n): cyc_to_json(v) for n, v in self.values}}

    @classmethod
    def from_json(cls, obj):
        return cls.from_dict({int(n): cyc_from_json(v)
                              for n, v in obj["values"].items()})


def phi_table(support, verify=True):
    """The table n -> 1 - z_n on the given support."""
    vals = {n: one(n) - zeta(n) for n in support}
    t = DistTable.from_dict(vals)
    if verify:
        rep = verify_relations(t)
        if not rep.passed:
            raise ArithmeticError("construction check failed: %r" % rep.failures())
    return t


def delta_table(pi, support):
    """The +-1-valued table: -1 exactly at levels all of whose prime
    divisors lie in the odd-prime set pi."""
    pi = tuple(sorted(set(pi)))
    if not pi:
        raise ValueError("the prime set must be nonempty")
    for p in pi:
        if p == 2 or not polys.is_probable_prime(p):
            raise ValueError("%d is not an odd prime" % p)
    vals = {}
    for n in support:
        neg = all(q in pi for q in polys.prime_factors(n))
        vals[n] = cyclotomic.from_rational(n, -1 if neg else 1)
    return DistTable.from_dict(vals)


def table_product(f, g):
    """Pointwise product on the common support (still divisor-closed)."""
    common = sorted(set(f.support) & set(g.support))
    return DistTable.from_dict({n: f.value(n) * g.value(n) for n in common})


def table_conj(f):
    """Conjugated table n -> tau(f(n))."""
    return DistTable.from_dict({n: act(cyclotomic.tau(n), f.value(n))
                                for n in f.support})


# ---------------------------------------------------------------------------
# projection-compatible exponent towers


class RTower:
    """Family of integer group-ring exponents r_n with pi(r_m) = r_n for
    n | m.  A combination sum of c * sigma_a at a base level generates a
    compatible element at every level; explicit chains are validated and
    pushed down by projection."""

    _PRESETS = ("one", "tau", "one_plus_tau", "one_minus_tau")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data

    @classmethod
    def preset(cls, name):
        if name not in cls._PRESETS:
            raise ValueError("unknown tower preset %r" % name)
        # coefficients of 1 and of tau, the term (c, 1, -1): -1 on every prime
        c1, ct = ((1, 0), (0, 1), (1, 1), (1, -1))[cls._PRESETS.index(name)]
        return cls("combo", (1, ((c1, 1, 1), (ct, 1, -1))))

    @classmethod
    def scalar(cls, k):
        return cls("combo", (1, ((int(k), 1, 1),)))

    @classmethod
    def combo(cls, base, terms):
        """Integer combination sum of c * sigma_a at a base level, lifted
        compatibly: a acts by its integer residue on primes dividing the
        base and trivially on new primes."""
        if base < 1:
            raise ValueError("base level must be >= 1")
        norm = []
        for c, a in terms:
            a = a % base if base > 1 else 1
            if base > 1 and gcd(a, base) != 1:
                raise ValueError("%d is not a unit mod %d" % (a, base))
            norm.append((int(c), a, 1))
        return cls("combo", (base, tuple(norm)))

    @classmethod
    def explicit(cls, chain):
        levels = sorted(chain)
        for a, b in zip(levels, levels[1:]):
            if b % a:
                raise ValueError("chain levels must form a divisor chain")
        for a, b in zip(levels, levels[1:]):
            if chain[b].project(to_level=a) != chain[a]:
                raise ValueError("chain elements are not projection-compatible")
        for n in levels:
            if chain[n].level != n or chain[n].plus:
                raise ValueError("chain elements must live in Z[G_n]")
            if not chain[n].is_integral():
                raise ValueError("tower elements must be integral")
        return cls("explicit", {n: chain[n] for n in levels})

    def covers(self, support):
        if self.kind != "explicit":
            return True
        return all(any(L % n == 0 for L in self.data) for n in support)

    @staticmethod
    def _lift_unit(a, s, base, target):
        # by CRT: a mod each prime power q || target dividing base, else s mod q
        x, mod = 0, 1
        for p in polys.prime_factors(target):
            q = p ** polys.order_at(target, p)
            x, mod = polys.crt_pair(x, mod, (a if base % p == 0 else s) % q, q), mod * q
        return x

    def at_level(self, n):
        if self.kind == "combo":
            base, terms = self.data
            big = lcm(base, n)
            coeffs = {}
            for c, a, s in terms:
                u = self._lift_unit(a, s, base, big)
                coeffs[u] = coeffs.get(u, 0) + c
            return grelt(big, False, coeffs).project(to_level=n)
        for L in sorted(self.data):
            if L % n == 0:
                return self.data[L].project(to_level=n)
        raise SupportError("tower chain does not cover level %d" % n)


def power_by_tower(f, tower, verify=True):
    """Table n -> f(n)^(r_n); paired with a re-check of the norm relations."""
    if not tower.covers(f.support):
        raise SupportError("tower chain does not cover the support")
    vals = {}
    for n in f.support:
        r = tower.at_level(n)
        vals[n] = r.act_on(f.value(n))
    t = DistTable.from_dict(vals)
    if verify:
        rep = verify_relations(t)
        if not rep.passed:
            raise ArithmeticError("tower action broke the norm relations: %r"
                                  % rep.failures())
    return t


# ---------------------------------------------------------------------------
# verification reports


class Report(_Value):
    """A named list of check entries; mutable and unhashable, as entries are
    appended while the checks run."""

    __slots__ = ("name", "entries")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name, entries=None):
        self.name = name
        self.entries = [] if entries is None else entries

    @property
    def passed(self):
        return all(e.get("pass", False) for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.get("pass", False)]

    def to_json(self):
        return {"report": self.name, "passed": self.passed,
                "entries": self.entries}


def _relation_pairs(support):
    s = set(support)
    for m in sorted(s):
        for big in sorted(s):
            if big != m and big % m == 0:
                q = big // m
                if polys.prime_factors(q) == [q]:
                    yield m, q


def verify_relations(f):
    """Exact check of the norm relations: for every m and prime l with
    m, ml in the support, N(f(ml)) equals f(m) when l | m and otherwise
    satisfies N(f(ml)) * sigma_l(f(m)) = f(m) (the inverse-free form)."""
    rep = Report("relations")
    for m, ell in _relation_pairs(f.support):
        lhs = norm_down(f.value(m * ell), m)
        if m % ell == 0:
            ok = lhs == f.value(m)
            case = "dividing"
        else:
            s = sigma_ell(ell, m)
            ok = lhs * act(s, f.value(m)) == f.value(m)
            case = "coprime"
        entry = {"check": "norm-relation", "m": m, "ell": ell,
                 "case": case, "pass": bool(ok)}
        if not ok:
            entry["witness"] = {"norm": cyc_to_json(lhs),
                                "value": cyc_to_json(f.value(m))}
        rep.entries.append(entry)
    return rep


def verify_strictness(f):
    """Exact check of the congruences f(z_l z_n) = f(z_n) modulo every prime
    above l, for coprime pairs with n*l in the support.  One pair per level
    suffices: the Galois group permutes the pairs (z_l^u, z_n^v) transitively
    and the primes above l form one Galois-stable set."""
    rep = Report("strictness")
    for n, ell in _relation_pairs(f.support):
        if n % ell == 0:
            continue
        big = n * ell
        rep.entries.append(_congruence_entry(
            {"check": "strictness", "n": n, "ell": ell},
            act((n + ell) % big, f.value(big)),   # value at z_l * z_n
            raise_level(f.value(n), big), ell))
    return rep


def _congruence_entry(entry, x, y, ell):
    """entry completed by the verdict on x = y modulo every prime above ell:
    the difference as witness when it fails, structural if not ell-integral."""
    try:
        diff = x - y
        entry["pass"] = bool(vanishes_at_all_primes_above(diff, ell))
        if not entry["pass"]:
            entry["witness"] = {"difference": cyc_to_json(diff)}
    except ValueError:
        entry["pass"] = False
        entry["structural"] = "value is not %d-integral" % ell
    return entry


def classify_torsion(f):
    """Recognize a +-1-valued table as one of the distinguished torsion
    tables: returns ("delta", pi) or ("not-torsion-form", None)."""
    plus1 = {}
    for n in f.support:
        v = f.value(n)
        if v == one(n):
            plus1[n] = 1
        elif v == -one(n):
            plus1[n] = -1
        else:
            raise ValueError("values outside {+1, -1}")
    pi = tuple(sorted(p for p in plus1
                      if p != 2 and plus1[p] == -1 and polys.is_probable_prime(p)))
    for n in f.support:
        expected = -1 if all(q in pi for q in polys.prime_factors(n)) else 1
        if plus1[n] != expected:
            return ("not-torsion-form", None)
    return ("delta", pi)


# ---------------------------------------------------------------------------
# exponent solving against eps_n


@lru_cache(maxsize=None)
def _pseudo_inverse(n):
    """(inv, back) for the least-squares solution of least norm x of
    sum_g L(c g) x(g) = b(c) over G_n^+, L(k) = log sigma_k(eps_n): the
    transform of the pseudo-inverse m_n over mu = |G_n^+|, by the flat
    index of `groupring.character_sums`, and the flat index of the inverse
    of each plus representative.  L and e_n are read at the positions of
    the walk of `groupring._coordinates`.  This is the one reader of the
    pairing chi <-> chi-bar, g <-> g^-1: the flat index with each digit e_i
    of the axes of `groupring._frame` negated mod d_i (conj below).

    With y(g) = x(g^-1) the system is the convolution L * y = b in
    Q[G_n^+], which the characters of G_n^+ diagonalise (Washington,
    GTM 83, ch. 4 and 8).  L^(chi) vanishes exactly where e_n^(chi) does:
    at the chi with chi(e_n) = 0.  So the pseudo-inverse m has transform
    1 / L^ on the kept characters, those with e_n^(chi) = 1, and 0
    elsewhere, and y = m * b.  One transform of L + i e_n gives both:
    e_n(g^-1) = e_n(g), so e_n^ is real, and L^ and i e_n^ are the halves
    of F(chi) and the conjugate of F(chi^-1).  e_n^ is 0 or 1, as e_n is
    idempotent; it is rounded from its double, which must lie within 1/4
    of it, so no threshold is set on L^.  inv is 1 / (mu L^) on the kept
    characters and 0 elsewhere, so y is the inverse transform of inv b^.
    """
    pos, conj = groupring._coordinates(n, True)[0], [0]
    for _, d in groupring._frame(n, True):
        conj = [i + (-k % d) * len(conj) for k in range(d) for i in conj]
    reps, leps, e_n = group_reps(n, True), _log_eps(n), idempotent_e_n(n)
    sums = groupring.character_sums(
        n, [complex(leps[reps[i]], e_n.nums[i] / e_n.den) for i in pos])
    inv = []
    for a, b in zip(sums, (sums[c].conjugate() for c in conj)):
        value = (a - b).imag / 2
        keep = round(value)
        if abs(value - keep) > 0.25 or keep not in (0, 1):
            raise ArithmeticError("e_n has a character value %r at level %d"
                                  % (value, n))
        inv.append(2 / (len(pos) * (a + b)) if keep else 0j)
    return tuple(inv), tuple(c for _, c in sorted(zip(pos, conj)))


def _character_solve(n, logs):
    """The least-squares solution of least norm of the logarithmic system
    for the logs b of sigma_c(u) at the plus representatives c, as doubles:
    y = m_n * b by one transform of b along the walk, one product by the
    cached inverse eigenvalues and one inverse transform, and x(g) the real
    part of y(g^-1)."""
    (inv, back), pos = _pseudo_inverse(n), groupring._coordinates(n, True)[0]
    y = groupring.character_sums(
        n, list(map(mul, groupring.character_sums(n, [logs[p] for p in pos]), inv)), 1)
    return [y[c].real for c in back]


def _around_mode(n, terms):
    """(m, dev): the weights k of the terms (a, k), 0 at the other plus
    representatives, as m + dev: m the most common weight (0 on a tie with
    0, so a sparse exponent keeps its terms), dev the nonzero (a, k - m).
    As a -> c a permutes them, sum k f(c a) = m sum_r f(r) + sum dev f(c a)."""
    reps = group_reps(n, True)
    counts = {0: len(reps) - len(terms)}
    for _, k in terms if 2 * len(terms) >= len(reps) else ():
        counts[k] = counts.get(k, 0) + 1
    m = max(counts, key=lambda k: (counts[k], k == 0))
    if m == 0:
        return 0, terms
    w = dict(terms)
    return m, [(a, w.get(a, 0) - m) for a in reps if w.get(a, 0) != m]


def _eps_residues(c, groups, powers, n, p):
    """prod eps(zeta^(c a))^k mod p over the terms (a, k), grouped by k,
    with eps(zeta^r) = 2 - zeta^r - zeta^-r read off the powers of zeta."""
    acc = 1
    for k, members in groups.items():
        q = 1
        for a in members:
            r = c * a % n
            q = q * (2 - powers[r] - powers[-r]) % p
        acc = acc * pow(q, k, p) % p
    return acc


def _eps_norm(n):
    """eps_n^N, N the sum of G_n^+: the integer Phi_n(1), q at a power of the
    prime q, 1 at two or more primes, 4 at n = 2."""
    qs = polys.prime_factors(n)
    return 4 if n == 2 else qs[0] if len(qs) == 1 else 1


def _residues_match(u, d, pos, neg, prime):
    """A = B modulo every prime above p, prime = (p, powers) from
    `polys.split_prime`: A(zeta^c) = B(zeta^c) in F_p at each unit c, with
    A = U^d eps^(d j^-) and B = D^d eps^(d j^+) (pos and neg hold the terms
    of d j^+ and d j^-).  U is read over its nonzero terms; the eps side,
    even in c, once per plus representative, as U^d eps^(dev^-) =
    D^d T^m eps^(dev^+) with T = eps^N (`_around_mode`, `_eps_norm`).
    When u is tau-fixed (`cyclotomic.is_tau_fixed`) so are A and B, so c and
    -c give the same equation and the plus representatives suffice."""
    n = u.level
    p, powers = prime
    terms = [(i, v % p) for i, v in u.nonzero()]
    m, dev = _around_mode(n, pos + [(a, -k) for a, k in neg])
    groups = ({}, {})
    for a, k in dev:
        groups[k > 0].setdefault(abs(k), []).append(a)
    scale = pow(u.den, d, p) * pow(_eps_norm(n), m, p) % p
    real = None        # read after the first equation, which may decide
    for c in group_reps(n, True):
        lhs = _eps_residues(c, groups[0], powers, n, p)
        rhs = scale * _eps_residues(c, groups[1], powers, n, p) % p
        for unit in (c, n - c):
            acc = sum(v * powers[i * unit % n] for i, v in terms)
            if pow(acc, d, p) * lhs % p != rhs:
                return False
            if real is None:
                real = cyclotomic.is_tau_fixed(u)
            if real:
                break
    return True


def _log_abs_bounds(x):
    """Upper bounds on log |sigma_c(x)| at the plus representatives c: the
    modulus from `cyclotomic.double_embeddings` plus its rounding bound
    inflated 2^10 times.  |sigma_(-c)(x)| = |sigma_c(x)| because the
    coefficients are real.
    """
    _, vals, err, shift = cyclotomic.double_embeddings(x)
    return [log(abs(v) + 2.0 ** 10 * err) + shift for v in vals]


def _log_units(x, size, up):
    """An upper (up) or lower bound on 2^48 times the log that the double x
    stands for: ceil(2^48 (x + 2^-40 (1 + size))), or the floor of
    2^48 (x - 2^-40 (1 + size)).  size is the sum of the magnitudes of the
    doubles combined into x; each carries a few units of 2^-52 of its own
    (of 1 for a log near 0), which the margin covers a thousand times over.
    SolveError unless x is finite."""
    margin = 2.0 ** -40 * (1.0 + size)
    try:
        return ceil(ldexp(x + margin, 48)) if up else floor(ldexp(x - margin, 48))
    except (OverflowError, ValueError):
        raise SolveError("log %r is not finite" % x) from None


@lru_cache(maxsize=None)
def _log_eps_ceilings(n):
    """(Kronecker index, int) terms at the plus representatives r: upper
    bounds on 2^48 log sigma_r(eps_n) (`_log_units`)."""
    leps = _log_eps(n)
    return [(key, _log_units(leps[r], abs(leps[r]), True))
            for key, r in zip(groupring._coordinates(n, True)[1], group_reps(n, True))]


def _eps_log_sums(n, terms):
    """Upper bounds on 2^48 sum k log sigma_(c a)(eps_n) over the terms
    (a, k), k > 0, at each plus representative c, from the ceilings
    `_log_eps_ceilings(n)`: m times their sum plus one integer product of
    sum (k - m) sigma_(a^-1) and them, m the most common k (`_around_mode`).
    Each a^-1 is taken by pow, at the deviation terms only, and read at its
    Kronecker index (`groupring._coordinates`)."""
    m, dev = _around_mode(n, terms)
    keys = groupring._coordinates(n, True)[1]
    at = groupring._unit_positions(n, True)
    prod = groupring._product(n, True, [(keys[at[pow(a, -1, n)]], k) for a, k in dev],
                              _log_eps_ceilings(n))
    if m == 0:
        return prod
    shift = m * sum(v for _, v in _log_eps_ceilings(n))
    return [v + shift for v in prod]


def _norm_bound(u, d, pos, neg):
    """Integer upper bound on 2^48 sum_c log(|sigma_c A| + |sigma_c B|) over
    the units c: log 2 plus the larger of d (log |sigma_c u| + log D) plus
    the eps side of A (`_eps_log_sums`) and d log D plus that of B.  A
    modulus a of u (`_log_abs_bounds`) adds log(|v| + 2^10 err), log top and
    -log D; its size |a| + 2 (log top + log D) covers all three, whatever
    cancels between the last two in a.
    """
    n = u.level
    log_den = log(u.den)
    size = 2 * (log(max(map(abs, u.nums))) + log_den)
    d_log_den = d * _log_units(log_den, log_den, True)
    total = len(u.nums) * _log_units(log(2.0), log(2.0), True)
    for c, a, tneg, tpos in zip(group_reps(n, True), _log_abs_bounds(u),
                                _eps_log_sums(n, neg), _eps_log_sums(n, pos)):
        per = max(d * _log_units(a, abs(a) + size, True) + tneg, tpos) + d_log_den
        total += per if 2 * c % n == 0 else 2 * per
    return total


def verify_exponent_identity(u, j):
    """Exact test of u = eps_n^j in Q (x) V(n), certified without field
    products.

    With u = U/D and d clearing denominators of j, the identity is A = B for
    the algebraic integers A = U^d eps^(d j^-) and B = D^d eps^(d j^+).  At
    a prime p = 1 mod n not dividing D, Z[zeta_n] / p splits into phi(n)
    copies of F_p, one per zeta^c; A and B are compared there, one scalar
    equation per unit c, whose eps side is read around the most common
    coefficient of d j, as eps to the sum of G_n^+ is the rational Phi_n(1)
    in every embedding.  A mismatch at any c proves A != B.  Matches at
    primes with product P put A - B in P Z[zeta_n], where every nonzero
    element has |N| >= P^phi(n); since |N(A - B)| <= prod_c (|sigma_c A| +
    |sigma_c B|), the identity holds once phi(n) log P exceeds an upper
    bound on sum_c log(|sigma_c A| + |sigma_c B|) (`_norm_bound`).  Only
    upper bounds on the embeddings enter, so a loose estimate costs primes,
    never soundness; both sides are compared as integers in units of 2^-48,
    with each log p rounded down (`_log_units`).
    """
    n = u.level
    if n < 2:
        raise LevelError("level must be >= 2")
    if j.level != n or not j.plus:
        raise LevelError("exponent must live in Q[G_n^+]")
    d = j.den
    terms = list(zip(group_reps(n, True), j.nums))
    pos = [(r, k) for r, k in terms if k > 0]
    neg = [(r, -k) for r, k in terms if k < 0]
    phi = len(u.nums)
    bound, log_p, p = None, 0, polys.SPLIT_FROM
    while bound is None or phi * log_p <= bound:
        prime = polys.split_prime(n, p)
        p = prime[0]
        if u.den % p == 0:
            continue
        if not _residues_match(u, d, pos, neg, prime):
            return False
        log_p += _log_units(log(p), log(p), False)
        if bound is None:
            bound = _norm_bound(u, d, pos, neg)
    return True


def exponent_denominator_profile(j):
    """Denominator of an exponent with its prime factorization: reported so
    that integrality properties can be inspected, never asserted."""
    d = j.denominator_lcm()
    return {"denominator": d,
            "factorization": {p: polys.order_at(d, p)
                              for p in polys.prime_factors(d)}}


def _integral_coset_representative(j, lattice, p=None):
    """Canonical representative of j modulo the saturated annihilator
    lattice; None if the coset has no integral (resp. p-integral) point."""
    nums, den = intlinalg.coset_reduce(lattice.hnf, j.nums, j.den)
    if den != 1 if p is None else den % p == 0:
        return None
    return GroupRingElt._from_ints(j.level, True, nums, den)


# Largest denominator the reconstruction tries; its bounds double from 1.
_MAX_DENOMINATOR = 4096


def _limit_denominator(num, den, bound):
    """(p, q): num / den (den > 0, coprime to num) rounded to the closest
    fraction with denominator at most bound, as `Fraction.limit_denominator`
    rounds it (the same convergents and semiconvergents, and a tie goes to
    the convergent), in integers."""
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - num/den| <= |p2/q2 - num/den|, times q1 q2 den > 0
    if abs(p1 * den - num * q1) * q2 <= abs(p2 * den - num * q2) * q1:
        return p1, q1
    return p2, q2


# Levels with phi(n) at most this get the unit (p-unit) check when no
# candidate certifies; its norm runs the l1-bound CRT, which grows with phi(n).
_UNIT_CHECK_MAX_PHI = 32


def solve_exponent(u):
    """Solve u = eps_n^j for a rational j in Q[G_n^+] e_n, up to the
    annihilator of eps_n; returns None when no verified solution exists.

    One evaluation of u's embeddings (`cyclotomic.embedding_logs`) gives
    both the total-positivity verdict and the right-hand side of the
    logarithmic system, whose least-squares solution of least norm is read
    in the character basis (`_character_solve`).  Everything after the
    float solve is integer arithmetic.  Each coordinate's exact binary
    value is rounded by continued fractions to each bound of a doubling
    denominator schedule up to 4096, and each distinct candidate j is
    certified once, as
    j e_n: for u totally positive, u = eps^j exactly iff u = eps^(j e_n),
    since eps^(k) = 1 for every integral k in Q[G](1 - e_n) (a totally
    positive root of unity).  The returned representative is the canonical
    integral one when the coset j e_n + I_n contains integral points, else
    j e_n itself.

    When no candidate certifies, an integral u at phi(n) <= 32 must be a
    unit (a p-unit at a level p^k), or the solve raises ValueError; its
    norm comes from split primes (`cyclotomic.norm_to_q`).  The check comes
    after the candidates and gives the verdict it would give before them:
    every eps_n^j is a unit (a p-unit), so a certified u is one too.
    """
    n = u.level
    if n < 2:
        raise LevelError("level must be >= 2")
    if u.is_zero():
        raise ValueError("cannot solve for the zero element")
    if not cyclotomic.is_tau_fixed(u):
        raise ValueError("element is not fixed by conjugation")
    logs = cyclotomic.embedding_logs(u)
    if logs is None:
        raise ValueError("element is not totally positive")
    ratios = [v.as_integer_ratio() for v in _character_solve(n, logs)]
    seen = set()
    bound = 1
    while bound <= _MAX_DENOMINATOR:
        fracs = [_limit_denominator(a, b, bound) for a, b in ratios]
        bound *= 2
        den = lcm(*(q for _, q in fracs))
        j = GroupRingElt._from_ints(n, True, [p * (den // q) for p, q in fracs], den)
        if j in seen:
            continue
        seen.add(j)
        je = _times_e_n(n, j.nums, j.den)
        if verify_exponent_identity(u, je):
            integral = _integral_coset_representative(je, annihilator_In_formula(n))
            return integral if integral is not None else je
    if u.is_integral() and polys.euler_phi(n) <= _UNIT_CHECK_MAX_PHI:
        ps = polys.prime_factors(n)
        ok = (cyclotomic.is_p_unit(u, ps[0]) if len(ps) == 1
              else cyclotomic.is_unit(u))
        if not ok:
            raise ValueError("element is not a unit (resp. p-unit) at level %d" % n)
    return None


# ---------------------------------------------------------------------------
# Euler-system conditions


def check_euler_conditions(f, m, r):
    """The four Euler-system conditions for the values
    r' -> f(z_m * prod_(l | r') z_l) over divisors r' of the squarefree r
    whose prime factors are 1 mod m."""
    if m < 2:
        raise LevelError("base level must be >= 2")
    if r < 1:
        raise ValueError("r must be positive")
    # the support is divisor-closed, so it holds every level read below iff
    # it holds m*r; checked before r is factored
    if m * r not in f.support:
        raise SupportError("support misses level %d" % (m * r))
    rprimes = polys.prime_factors(r)
    prod = 1
    for q in rprimes:
        prod *= q
        if q % m != 1:
            raise ValueError("prime %d is not 1 mod %d" % (q, m))
    if prod != r and r != 1:
        raise ValueError("r must be squarefree")

    def eps_value(rp):
        if rp == 1:
            return f.value(m)
        a = rp + m * sum(rp // q for q in polys.prime_factors(rp))
        return act(a % (m * rp), f.value(m * rp))

    rep = Report("euler-conditions")
    if r == 1:
        rep.entries.append({"check": "ES", "r": 1, "pass": True,
                            "note": "vacuous: no prime divisors"})
        return rep
    divisors = [1]
    for q in rprimes:
        divisors += [d * q for d in divisors]
    divisors.sort()
    vals = {rp: eps_value(rp) for rp in divisors}
    for rp in divisors:
        if rp == 1:
            continue
        rep.entries.append({"check": "ES1", "r": rp, "pass": True,
                            "note": "field membership holds by representation"})
        rep.entries.append({"check": "ES2", "r": rp,
                            "pass": bool(cyclotomic.is_unit(vals[rp]))})
        for ell in polys.prime_factors(rp):
            down = rp // ell
            lower_level_n = m * down
            lhs = norm_down(vals[rp], lower_level_n)
            # norm descent lands on the Frobenius twist: the product of
            # 1 - zeta * eta over the ell-th roots eta telescopes to
            # (1 - zeta^ell) / (1 - zeta), cross-multiplied here
            frob = cyclotomic.GaloisElt(lower_level_n, ell % lower_level_n)
            ok3 = lhs * vals[down] == act(frob, vals[down])
            rep.entries.append({"check": "ES3", "r": rp, "ell": ell, "pass": bool(ok3)})
            rep.entries.append(_congruence_entry(
                {"check": "ES4", "r": rp, "ell": ell},
                vals[rp], raise_level(vals[down], m * rp), ell))
    return rep
