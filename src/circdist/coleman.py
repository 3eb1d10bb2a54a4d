"""Digit machinery along p-power towers over a base level.

For a table with totally positive tau-fixed values, each level m*p^n value
is written as a power of eps_(m p^n) by an exponent a_n; pushing a_n down to
the base level, reducing the identity-coefficient mod p^(n-k) and taking the
representative in [0, p^(n-k)) gives the digit |a_n|_k (and |-a_n|_k on the
mirrored side).  A sequence of digits that is eventually constant at every
inspected k is the finite-range signature of an integral limiting exponent;
the verdicts here are explicitly evidence, never certificates, since any
finite depth leaves the limit undetermined.

Also here: the norm-compatible family eps_(q p^a)^(Pi_a) built from lifted
full-group sums (exactly norm-compatible because the group sum annihilates
eps at non-prime-power levels), and the constancy check for valuations of
prime-power-level values.
"""

from fractions import Fraction

from . import groupring, polys
from .cyclotomic import _Value, norm_down, one, valuation_at_p
from .distributions import (Report, SolveError, _integral_coset_representative,
                            exponent_denominator_profile, solve_exponent)
from .groupring import (GroupRingElt, annihilator_In_formula, eps_n, grelt,
                        group_reps, group_sum, stabilization_b0)


class KappaEntry(_Value):
    """Tower step n at level m p^n: ``a_n`` is the p-integral exponent there,
    ``projected`` its push-forward to the base level m and ``digits`` the
    tuple of (k, plus digit, minus digit)."""

    __slots__ = ("n", "level", "a_n", "projected", "digits")

    def digit(self, k):
        for kk, dp, dm in self.digits:
            if kk == k:
                return dp, dm
        raise KeyError("no digit stored for k = %d" % k)


class KappaDigits(_Value):
    """The KappaEntry of each step of the (m, p) tower up to depth, with the
    detected b_0 as ``stabilization``."""

    __slots__ = ("m", "p", "depth", "k_list", "entries", "stabilization")

    def to_json(self):
        return {"m": self.m, "p": self.p, "depth": self.depth,
                "k_list": list(self.k_list),
                "stabilization": self.stabilization,
                "entries": [{
                    "n": e.n,
                    "a_n": groupring.gr_to_json(e.a_n),
                    "denominator": exponent_denominator_profile(e.a_n),
                    "projected": groupring.gr_to_json(e.projected),
                    "digits": {str(k): [dp, dm] for k, dp, dm in e.digits},
                } for e in self.entries]}


def _digits(c, p, n, k_list):
    """(k, plus, minus) for each k < n in k_list: the representatives of
    c and -c in [0, p^(n-k)) for a p-integral rational c."""
    out = []
    for k in k_list:
        if k < n:
            modulus = p ** (n - k)
            plus = c.numerator * pow(c.denominator, -1, modulus) % modulus
            out.append((k, plus, -plus % modulus))
    return tuple(out)


def p_integral_exponent(u, p):
    """Exponent a with u = eps^a whose coefficients are p-integral: solve,
    then reduce across the annihilator coset.  Raises SolveError when the
    solver fails or the coset has no p-integral representative."""
    j = solve_exponent(u)
    if j is None:
        raise SolveError("no exponent found at level %d" % u.level)
    rep = _integral_coset_representative(j, annihilator_In_formula(u.level), p=p)
    if rep is None:
        raise SolveError("no p-integral representative found at level %d" % u.level)
    return rep


def kappa_digits(f, m, p, depth, k_list=None):
    """Digit table for a tower of totally positive values f(m*p^n), n <= depth.

    Each level's exponent is solved exactly against eps, reduced to a
    p-integral representative, projected to the base level, and its
    identity coefficient is reduced mod p^(n-k) for every k in k_list
    below n."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not polys.is_probable_prime(p):
        raise ValueError("p = %d is not a prime" % p)
    # one level at a time: the support is finite, so a huge depth stops at
    # the first level it misses (KeyError) before anything is built
    for n in range(1, depth + 1):
        f.value(m * p ** n)
    if k_list is None:
        k_list = tuple(range(max(1, depth - 1)))
    k_list = tuple(sorted(set(int(k) for k in k_list)))
    if any(k < 0 for k in k_list):
        raise ValueError("digit indices must be nonnegative")
    # digits with k >= b0 are independent of the representative choice; when
    # p does not divide m the chain of projections only controls powers of p
    # down to the level m*p, costing one extra step
    b0 = stabilization_b0(m, p)
    if m % p:
        b0 = max(b0, 1)
    entries = []
    for n in range(1, depth + 1):
        lev = m * p ** n
        a = p_integral_exponent(f.value(lev), p)
        proj = a.project(to_level=m)
        entries.append(KappaEntry(n, lev, a, proj,
                                  _digits(proj.coefficient(1), p, n, k_list)))
    return KappaDigits(m, p, depth, k_list, tuple(entries), b0)


class BoundednessVerdict(_Value):
    """Per-k boundedness of the digits over n_range; ``per_k`` is a tuple of
    (k, dict) pairs."""

    __slots__ = ("m", "p", "n_range", "per_k", "evidence_only")

    def __init__(self, m, p, n_range, per_k, evidence_only=True):
        super().__init__(m, p, n_range, per_k, evidence_only)

    def bounded(self, k):
        for kk, d in self.per_k:
            if kk == k:
                return d["bounded_plus"] or d["bounded_minus"]
        raise KeyError("no verdict for k = %d" % k)

    def to_json(self):
        return {"m": self.m, "p": self.p, "evidence_only": self.evidence_only,
                "n_range": list(self.n_range),
                "per_k": {str(k): d for k, d in self.per_k}}


def _eventually_constant(seq):
    if not seq:
        return False, None
    last = seq[-1]
    i = len(seq)
    while i > 0 and seq[i - 1] == last:
        i -= 1
    # a constant tail needs at least two attesting observations
    return len(seq) - i >= 2, last


def boundedness_report(kd, threshold=None):
    """Finite-range boundedness evidence per digit index k: a side counts as
    bounded when its digit sequence is eventually constant across the
    computed range (and below the optional threshold).  Never a certificate:
    the range is finite."""
    per_k = []
    for k in kd.k_list:
        seq_plus, seq_minus, ns = [], [], []
        for e in kd.entries:
            if e.n > k:
                dp, dm = e.digit(k)
                seq_plus.append(dp)
                seq_minus.append(dm)
                ns.append(e.n)
        const_p, tail_p = _eventually_constant(seq_plus)
        const_m, tail_m = _eventually_constant(seq_minus)
        bp = const_p and (threshold is None or max(seq_plus) <= threshold)
        bm = const_m and (threshold is None or max(seq_minus) <= threshold)
        per_k.append((k, {
            "bounded_plus": bool(bp), "bounded_minus": bool(bm),
            "max_plus": max(seq_plus) if seq_plus else None,
            "max_minus": max(seq_minus) if seq_minus else None,
            "tail_plus": tail_p, "tail_minus": tail_m,
            "digits_plus": seq_plus, "digits_minus": seq_minus,
            "n_values": ns,
        }))
    ns = [e.n for e in kd.entries]
    return BoundednessVerdict(kd.m, kd.p, (min(ns), max(ns)) if ns else (0, 0),
                              tuple(per_k))


def synthetic_digits(m, p, depth, k_list, numerator, denominator):
    """Digit table of a constant p-adic coefficient given as a fraction with
    denominator prime to p; used to exercise the boundedness verdicts on
    streams that cannot come from an integral exponent."""
    c = Fraction(numerator, denominator)
    k_list = tuple(sorted(set(k_list)))
    ident = grelt(m, True, {1: c})
    entries = []
    for n in range(1, depth + 1):
        entries.append(KappaEntry(n, m * p ** n, ident.project(to_level=m),
                                  ident, _digits(c, p, n, k_list)))
    return KappaDigits(m, p, depth, k_list, tuple(entries), 0)


# ---------------------------------------------------------------------------
# the norm-compatible family built from lifted group sums


class NcndFamily(_Value):
    """For a = 2..a_max: ``exponents`` holds Pi_a at its own level and
    ``family_values`` holds eps^(Pi_a)."""

    __slots__ = ("p", "q", "a_max", "levels", "exponents", "family_values", "report")

    def value(self, a):
        for (aa, v) in zip(range(2, self.a_max + 1), self.family_values):
            if aa == a:
                return v
        raise KeyError("no value stored for a = %d" % a)


def _section_lift(elt, target_level, choose):
    """Lift a plus group-ring element one level up a p-power tower by picking
    one preimage representative per group element (a set-theoretic section
    of the projection).  choose selects among the positions of the candidate
    representatives, in ascending order."""
    preimages = {}
    for i, g in enumerate(groupring._push_columns(target_level, elt.level, True, True)):
        preimages.setdefault(g, []).append(i)
    nums = [0] * len(group_reps(target_level, True))
    for g, v in elt.nonzero():
        nums[choose(preimages[g])] = v
    return GroupRingElt(target_level, True, tuple(nums), elt.den)


def ncnd_family(p, q, a_max, section="smallest"):
    """Values eps_(q p^a)^(Pi_a) for a = 2..a_max, where Pi_a is the sum of
    compatibly lifted full-group sums from the lower levels of the tower.

    Exact verification: the norm of each value equals the previous one (the
    newly appearing group sum annihilates eps because the full norm of eps
    at a level with two distinct primes is 1), and that annihilation is
    checked directly as well.  section picks the least ("smallest") or the
    greatest ("largest") preimage of each lift; ValueError for any other."""
    if p == q or p == 2 or q == 2:
        raise ValueError("the primes must be odd and distinct")
    for v in (p, q):
        if not polys.is_probable_prime(v):
            raise ValueError("%d is not prime" % v)
    if a_max < 3:
        raise ValueError("a_max must be at least 3")
    if section not in ("smallest", "largest"):
        raise ValueError("section %r is neither 'smallest' nor 'largest'" % (section,))
    choose = (lambda cands: cands[0]) if section == "smallest" else (lambda cands: cands[-1])
    levels = [q * p ** a for a in range(1, a_max + 1)]
    # tower[b][a] = the lift of the level-b full-group sum to level a
    tower = {}
    for b in range(1, a_max + 1):
        lifts = {b: group_sum(levels[b - 1], True)}
        for a in range(b, a_max):
            lifts[a + 1] = _section_lift(lifts[a], levels[a], choose)
        tower[b] = lifts
    exponents = []
    values = []
    rep = Report("norm-compatible-family")
    for a in range(2, a_max + 1):
        pi_a = grelt(levels[a - 1], True, {})
        for b in range(1, a):
            pi_a = pi_a + tower[b][a]
        exponents.append(pi_a)
        eps = eps_n(levels[a - 1])
        values.append(pi_a.act_on(eps, assume_tau_fixed=True))
    for i, a in enumerate(range(2, a_max)):
        down = norm_down(values[i + 1], levels[a - 1])
        ok = down == values[i]
        entry = {"check": "norm-compatibility", "a": a + 1, "to_a": a, "pass": bool(ok)}
        rep.entries.append(entry)
    for a in range(1, a_max + 1):
        eps = eps_n(levels[a - 1])
        val = tower[a][a].act_on(eps, assume_tau_fixed=True)
        rep.entries.append({"check": "group-sum-annihilates", "a": a,
                            "pass": val == one(levels[a - 1])})
    return NcndFamily(p, q, a_max, tuple(levels), tuple(exponents),
                      tuple(values), rep)


def section_independence_check(fam1):
    """The last lifting step drops out under the norm: lifting the same
    exponent with two different sections changes the top value only inside
    the kernel of the projection, which the norm kills exactly.  fam1 is the
    family from `ncnd_family` ("smallest" section); a family built with the
    "largest" section throughout must itself be exactly norm-compatible."""
    p, q, a_max = fam1.p, fam1.q, fam1.a_max
    fam2 = ncnd_family(p, q, a_max, section="largest")
    rep = Report("section-independence")
    rep.entries.append({"check": "alt-section-family-norm-compatible",
                        "pass": fam2.report.passed})
    top = q * p ** a_max
    below = q * p ** (a_max - 1)
    pi_below = fam1.exponents[-2] + group_sum(below, True)
    target = fam1.value(a_max - 1)
    for name, choose in (("smallest", lambda c: c[0]), ("largest", lambda c: c[-1])):
        lifted = _section_lift(pi_below, top, choose)
        val = lifted.act_on(eps_n(top), assume_tau_fixed=True)
        down = norm_down(val, below)
        rep.entries.append({"check": "one-step-norm-agrees", "section": name,
                            "pass": down == target})
    return rep


# ---------------------------------------------------------------------------
# valuation constancy at prime-power levels


def valuation_constancy(f):
    """Valuations of the table values at every prime-power level in the
    support, with the constancy verdict (all levels must share one integer)."""
    rep = Report("valuation-constancy")
    vals = []
    for n in f.support:
        ps = polys.prime_factors(n)
        if len(ps) != 1:
            continue
        v = valuation_at_p(f.value(n), ps[0])
        vals.append((n, ps[0], v))
    if len(vals) < 2:
        raise ValueError("support needs at least two prime-power levels")
    common = vals[0][2]
    for n, pp, v in vals:
        rep.entries.append({"check": "valuation", "level": n, "prime": pp,
                            "valuation": v, "pass": v == common})
    rep.entries.append({"check": "constancy", "value": common,
                        "pass": all(v == common for _, _, v in vals)})
    return rep
