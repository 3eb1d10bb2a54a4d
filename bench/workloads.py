"""The four benchmark workloads: seeded inputs, timed calls and exact checks.

A workload is built by ``build(name, seed, tiny)``, which returns a list of
``Op``.  Building is the workload's set-up: it imports circdist and makes
every input (tables, exponents, argv lists) before the first timed call.

Each op has three parts:

* ``run()`` is the timed call into circdist and returns its raw output;
* ``result(raw)`` turns the raw output into plain data, whose digest must be
  the same with tracing on and off;
* ``check(raw)`` returns None when the output is exactly right, or a short
  reason when it is not.

Layer functions are always reached through their module attribute
(``coleman.p_integral_exponent``, never a name bound at import), so that the
trace wrappers installed after set-up see every call the workload makes.
"""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ("tower_deep", "solve_small", "lattice_grid", "cli_oneshot")

# Towers of criterion 07 as (m, p, depth).  The (5, 3) tower stops at depth
# 4: its level 1215 takes 32-37 s on its own, which no run of this benchmark
# can afford (every run must end within 180 s).
TOWERS = ((4, 3, 5), (3, 2, 5), (5, 3, 4))
TOWER_SCALARS = (1, 2)
TOWER_K = (0, 1, 2, 3)

# Image claims left out of lattice_grid because no run could afford them:
# (30, 2) needs annihilator_In_formula(480), which ran past 400 s, and
# (34, 2) needs level 544, which ran past the 10 s it was given.
IMAGE_CLAIMS_OUT = ((30, 2), (34, 2))

# solve_small draws no solve whose u = eps_n^r has conditioning() of 14 or
# more, and counts the exponents it redraws.  solve_exponent evaluates u's
# embeddings in double precision and falls back to mpmath only when one
# comes out <= 0; past about 16 digits lost, the sign of a tiny embedding is
# noise, and when it comes out positive the garbage log makes
# solve_exponent return None for a valid u.  Every such failure seen had
# conditioning 17.4-19.4, e.g. n=96, r = 2 + 3 s(23) - 3 s(29) (seed
# 489837368) and n=84, r = 2 - 2 s(37) - 3 s(41) (seed 201); none of 1468
# solves with conditioning 11 to 17 failed.  That is a defect of
# solve_exponent, left standing; a run of this benchmark needs every op to
# pass.  About 2% of draws are redrawn.
SOLVE_KAPPA_MAX = 14.0

# The ten README commands and the exit code each is expected to return.
CLI_COMMANDS = (
    (("verify", "--table", "phi", "--support", "closure(60)"), 0),
    (("strictness", "--table", "delta(3)", "--support", "closure(15)"), 1),
    (("annihilator", "--n", "12", "--oracle"), 0),
    (("idempotent", "--n", "24"), 0),
    (("kappa", "--table", "pow(phi, one_plus_tau)", "--support", "closure(96)",
      "--m", "3", "--p", "2", "--depth", "5", "--k", "1,2,3"), 0),
    (("boundedness", "--table", "pow(phi, one_plus_tau)", "--support",
      "closure(96)", "--m", "3", "--p", "2", "--depth", "5", "--k", "1,2,3"), 0),
    (("ncnd", "--p", "3", "--q", "5", "--a-max", "3"), 0),
    (("euler", "--table", "phi", "--support", "closure(21)", "--m", "3",
      "--r", "7"), 0),
    (("torsion", "--table", "delta(3,5)", "--support", "closure(45,12)"), 0),
    (("valuation", "--table", "pow(phi, 3)", "--support", "closure(9,8,25)"), 0),
)

# Workloads whose ops run in child processes: peak RSS is that of the
# largest child, and each child samples the host's speed itself.
CHILD_PROCESS_WORKLOADS = ("cli_oneshot",)


# The layer functions each workload's ops call directly: a traced run in
# which one of them records no call has missed a binding.
ENTRY_POINTS = {
    "tower_deep": ("coleman.p_integral_exponent",),
    "solve_small": ("distributions.solve_exponent",
                    "distributions.verify_exponent_identity"),
    "lattice_grid": ("groupring.annihilator_In_formula",
                     "groupring.annihilator_In_oracle", "groupring.annihilator_mu",
                     "groupring.annihilator_Tn", "groupring.project_annihilator"),
    "cli_oneshot": ("cli.main",),
}

_SEED_FIELD = re.compile(rb'"seed":-?[0-9]+')


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    result: Callable[[object], object]
    check: Callable[[object], Optional[str]]
    # for an op whose work runs in a child process: raw output -> (seconds
    # the child spent sampling the host's speed, the child's speed factor)
    speed: Optional[Callable[[object], tuple]] = None


def digest(obj):
    """sha256 of the canonical JSON form of plain data."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]


def report_digest(stdout):
    """Digest of a circdist/1 report with the echoed seed removed."""
    return hashlib.sha256(_SEED_FIELD.sub(b'"seed":null', stdout)).hexdigest()


# ---------------------------------------------------------------------------
# tower_deep


def tower_table(m, p, depth, c):
    """Criterion 07's table phi^((1 + tau) c) on the divisors of m p^depth."""
    from circdist.distributions import (RTower, divisor_closure, phi_table,
                                        power_by_tower)
    return power_by_tower(
        power_by_tower(phi_table(divisor_closure([m * p ** depth]), verify=False),
                       RTower.preset("one_plus_tau"), verify=False),
        RTower.scalar(c), verify=False)


def _tower_ops(seed, tiny, ref):
    from circdist import coleman, groupring
    rng = random.Random(seed)
    ops = []
    for m, p, depth in TOWERS:
        if tiny:
            depth = 2
        c = rng.choice(TOWER_SCALARS)
        table = tower_table(m, p, depth, c)
        b0 = groupring.stabilization_b0(m, p)
        if m % p:
            b0 = max(b0, 1)
        expected = ref["tower"]["%d,%d,%d" % (m, p, c)]
        for n in range(1, depth + 1):
            u = table.value(m * p ** n)
            ops.append(_tower_op(coleman, groupring, m, p, n, c, b0, u,
                                 expected[n - 1]))
    return ops


def _tower_op(coleman, groupring, m, p, n, c, b0, u, expected):
    def run():
        a = coleman.p_integral_exponent(u, p)
        return a, a.project(to_level=m)

    def result(raw):
        a, proj = raw
        return [groupring.gr_to_json(a), groupring.gr_to_json(proj)]

    def check(raw):
        coeff = raw[1].coefficient(1)
        for k in TOWER_K:
            if b0 <= k < n:
                mod = p ** (n - k)
                inv = pow(coeff.denominator, -1, mod)
                plus = coeff.numerator * inv % mod
                if (plus, -plus % mod) != (c % mod, -c % mod):
                    return "digit k=%d breaks the closed form" % k
        if digest(result(raw)) != expected:
            return "exponent differs from the reference"
        return None

    return Op("tower m=%d p=%d n=%d" % (m, p, n), run, result, check)


# ---------------------------------------------------------------------------
# solve_small


def solve_levels(tiny=False):
    """Levels 3..120 with phi(n) <= 48, skipping n = 2 mod 4 (the same field
    as n/2; this also drops n = 6, where eps_6 = 1)."""
    from circdist import polys
    top = 16 if tiny else 120
    return [n for n in range(3, top + 1)
            if n % 4 != 2 and polys.euler_phi(n) <= 48]


def conditioning(n, reps, r, u):
    """log10 of (sum of |coefficients of u|) / (smallest embedding of u), for
    u = eps_n^r: the decimal digits that a double-precision evaluation of u's
    embeddings loses.  The embeddings come from r: sigma_c(eps_n) is
    4 sin(pi c / n)^2."""
    logs = [sum(float(k) * 2.0 * math.log(2.0 * math.sin(math.pi * (c * g % n) / n))
                for g, k in r.coeffs)
            for c in reps]
    return (math.log(float(sum(abs(c) for c in u.coeffs))) - min(logs)) / math.log(10.0)


def _draw_exponent(groupring, rng, n, reps):
    return groupring.grelt(n, True, {rng.choice(reps): rng.randint(-3, 3),
                                     rng.choice(reps): rng.randint(-3, 3),
                                     1: rng.randint(0, 2)})


def _solve_ops(seed, tiny, notes):
    from circdist import distributions, groupring
    rng = random.Random(seed)
    ops = []
    notes["redrawn"] = 0
    for n in solve_levels(tiny):
        reps = groupring.group_reps(n, True)
        eps = groupring.eps_n(n)
        for i in range(4):
            r = _draw_exponent(groupring, rng, n, reps)
            u = r.act_on(eps, assume_tau_fixed=True)
            # solve ops only: redraw an exponent whose power is beyond the
            # float solve's reach (see SOLVE_KAPPA_MAX)
            while i < 3 and conditioning(n, reps, r, u) >= SOLVE_KAPPA_MAX:
                notes["redrawn"] += 1
                r = _draw_exponent(groupring, rng, n, reps)
                u = r.act_on(eps, assume_tau_fixed=True)
            if i < 3:
                ops.append(_solve_op(distributions, groupring, n, r, u))
            else:
                # eps_n is real, positive and not 1 (n != 6), so no nonzero
                # multiple of one group element annihilates it
                bump = groupring.grelt(n, True, {rng.choice(reps): rng.choice((-2, -1, 1, 2))})
                ops.append(_reject_op(distributions, n, u, r + bump))
    rng.shuffle(ops)
    return ops


def _solve_op(distributions, groupring, n, r, u):
    def run():
        return distributions.solve_exponent(u)

    def result(j):
        return None if j is None else groupring.gr_to_json(j)

    def check(j):
        if j is None:
            return "no exponent found"
        diff = j - r
        if diff.coeffs and not groupring.annihilator_In_formula(n).contains(diff):
            return "j - r is not in I_n"
        return None

    return Op("solve n=%d" % n, run, result, check)


def _reject_op(distributions, n, u, wrong):
    def run():
        return distributions.verify_exponent_identity(u, wrong)

    def check(accepted):
        return "corrupted exponent accepted" if accepted else None

    return Op("reject n=%d" % n, run, bool, check)


# ---------------------------------------------------------------------------
# lattice_grid


def lattice_plan(tiny=False):
    """The grid as plain tuples: formula levels, projection-law levels (each
    with its (n, ell) pairs, n * ell = N), and image claims (m, p)."""
    top = 24 if tiny else 120
    mtop = 12 if tiny else 40
    primes = primes_upto(top)
    formula = list(range(2, top + 1))
    laws = []
    for big in range(4, top + 1):
        pairs = [(big // ell, ell) for ell in primes
                 if big % ell == 0 and big // ell >= 2]
        if pairs:
            laws.append((big, pairs))
    images = [(m, p) for m in range(2, mtop + 1) for p in primes
              if m % p == 0 and (m, p) not in IMAGE_CLAIMS_OUT]
    return formula, laws, images


def tn_law_applies(n, ell):
    """Criterion 04's starred law (projection equals the lower lattice);
    at n = 2 mod 4 with ell = 2 the projection is a proper sublattice and
    the benchmark compares the captured rows instead."""
    return not (ell == 2 and n % 4 == 2)


def _lattice_ops(seed, tiny, ref):
    from circdist import groupring, polys
    formula, laws, images = lattice_plan(tiny)
    ops = []
    for n in formula:
        with_oracle = polys.euler_phi(n) <= 16
        ops.append(_formula_op(groupring, n, with_oracle,
                               None if with_oracle else ref["formula"][str(n)]))
    for big, pairs in laws:
        ops.append(_law_op(groupring, "mu", big, pairs, ref))
        ops.append(_law_op(groupring, "Tn", big, pairs, ref))
    for m, p in images:
        ops.append(_image_op(groupring, m, p))
    random.Random(seed).shuffle(ops)
    return ops


def _hnf(lattice):
    return [list(r) for r in lattice.hnf]


def _formula_op(groupring, n, with_oracle, expected):
    def run():
        lat = groupring.annihilator_In_formula(n)
        return lat, groupring.annihilator_In_oracle(n) if with_oracle else None

    def result(raw):
        return [_hnf(raw[0]), None if raw[1] is None else _hnf(raw[1])]

    def check(raw):
        lat, oracle = raw
        if with_oracle:
            return None if oracle == lat else "formula differs from the oracle"
        return None if digest(_hnf(lat)) == expected else "rows differ from the reference"

    return Op("formula n=%d" % n, run, result, check)


def _law_op(groupring, kind, big, pairs, ref):
    def lattice(n):
        if kind == "mu":
            return groupring.annihilator_mu(n)
        return groupring.annihilator_Tn(n, starred=True)

    def run():
        top = lattice(big)
        return [(n, ell, groupring.project_annihilator(big, n, top), lattice(n))
                for n, ell in pairs]

    def result(raw):
        return [[n, ell, _hnf(proj), _hnf(low)] for n, ell, proj, low in raw]

    def check(raw):
        for n, ell, proj, low in raw:
            if kind == "mu" and ell == 2 and n % 2:
                ok = proj != low and proj.index_in(low) == 2
            elif kind == "mu" or tn_law_applies(n, ell):
                ok = proj == low
            else:
                ok = digest(_hnf(proj)) == ref["tn_rows"]["%d,%d" % (n, ell)]
            if not ok:
                return "%s law fails at (n, ell) = (%d, %d)" % (kind, n, ell)
        return None

    return Op("%s-law N=%d" % (kind, big), run, result, check)


def _image_op(groupring, m, p):
    def run():
        return groupring.image_is_p_times_I(m, p, groupring.stabilization_b0(m, p))

    def check(ok):
        return None if ok is True else "image claim is false"

    return Op("image m=%d p=%d" % (m, p), run, bool, check)


# ---------------------------------------------------------------------------
# cli_oneshot


def _cli_ops(seed, tiny, ref, traced, cap_s):
    import circdist.cli  # noqa: F401  (set-up is the CLI's own import)
    from hostspeed import CLI_MARK, REF_S
    rng = random.Random(seed)
    commands = list(enumerate(CLI_COMMANDS))[:3 if tiny else None]
    rng.shuffle(commands)
    # each command is a fresh interpreter running circdist.cli.main through
    # worker.py, which samples the host's speed (and traces, if asked)
    prefix = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "cli"]
    prefix += ["--trace"] if traced else []
    ops = []
    for idx, (argv, code) in commands:
        full = prefix + list(argv) + ["--seed", str(rng.randrange(1000))]
        ops.append(_cli_op(argv[0], full, code, ref["cli"][idx], cap_s, CLI_MARK, REF_S))
    return ops


def _cli_op(name, full, code, expected, cap_s, mark, ref_s):
    def run():
        proc = subprocess.run(full, capture_output=True, timeout=cap_s)
        last = proc.stderr.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        info = json.loads(last[len(mark):]) if last.startswith(mark) else None
        return proc.returncode, proc.stdout, info

    def result(raw):
        return [raw[0], report_digest(raw[1])]

    def check(raw):
        if raw[2] is None:
            return "the process did not report its host-speed samples"
        if raw[0] != code:
            return "exit code %d, expected %d" % (raw[0], code)
        if report_digest(raw[1]) != expected:
            return "report differs from the reference"
        return None

    def speed(raw):
        return raw[2]["probe_s"], ref_s / raw[2]["probe_mean"]

    return Op("cli %s" % name, run, result, check, speed)


# ---------------------------------------------------------------------------


def build(name, seed, tiny=False, traced=False, cap_s=None, ref=None, notes=None):
    """Set-up of one workload: every input of every op, in run order.  Facts
    about the inputs worth reporting (solve_small's redrawn count) go into
    ``notes``, a dict, if one is given."""
    notes = {} if notes is None else notes
    if ref is None:
        ref = load_reference()
    if name == "tower_deep":
        return _tower_ops(seed, tiny, ref)
    if name == "solve_small":
        return _solve_ops(seed, tiny, notes)
    if name == "lattice_grid":
        return _lattice_ops(seed, tiny, ref)
    if name == "cli_oneshot":
        return _cli_ops(seed, tiny, ref, traced, cap_s)
    raise ValueError("unknown workload %r" % name)
