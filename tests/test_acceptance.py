"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact (integer/rational arithmetic); the only stated
tolerance is the runtime budget on the relation sweep.  Criteria that pin
specific instances use them verbatim; sweeps are seeded and reproducible.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from circdist import coleman
from circdist import groupring as gr
from circdist import polys
from circdist.cyclotomic import one, zeta
from circdist.distributions import (RTower, check_euler_conditions,
                                    delta_table, divisor_closure, phi_table,
                                    power_by_tower, table_product,
                                    verify_exponent_identity, verify_relations,
                                    verify_strictness)
from circdist.groupring import (annihilator_In_formula, annihilator_In_oracle,
                                annihilator_Tn, annihilator_mu, eps_n, grelt,
                                group_reps, image_is_p_times_I,
                                project_annihilator, stabilization_b0)


def _line(num, ok, text):
    print("[criterion %02d] %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_01_relation_suite():
    start = time.monotonic()
    support = divisor_closure(list(range(2, 31)) + [60, 72, 90, 120])
    table = phi_table(support, verify=False)
    rep = verify_relations(table)
    elapsed = time.monotonic() - start
    ok = rep.passed and not rep.failures() and elapsed < 60.0
    _line(1, ok, "norm relations on %d levels, %d checks, %.1fs"
          % (len(support), len(rep.entries), elapsed))


def test_criterion_02_strictness_suite():
    support = tuple(range(2, 121))
    f = phi_table(support, verify=False)
    rep = verify_strictness(f)
    ok_phi = rep.passed and all(e["n"] * e["ell"] <= 120 for e in rep.entries)

    d3 = delta_table([3], support)
    rep3 = verify_strictness(d3)
    wit = [e for e in rep3.failures() if e["n"] == 3 and e["ell"] == 5]
    ok_d3 = bool(wit) and "witness" in wit[0]

    pi = (3, 5, 7, 11, 13)
    d13 = delta_table(pi, support)
    rep13 = verify_strictness(d13)
    inside = [e for e in rep13.entries if e["ell"] in (2,) + pi]
    ok_trunc = all(e["pass"] for e in inside)
    # a congruence prime beyond the truncation is genuinely violated; this
    # is the expected behaviour of a truncation, recorded as documentation
    outside_fail = any(not e["pass"] for e in rep13.entries
                       if e["ell"] not in (2,) + pi)
    ok = ok_phi and ok_d3 and ok_trunc and outside_fail
    _line(2, ok, "strictness: generator passes %d pairs; delta(3) fails at "
          "(3,5); truncation passes its %d in-range pairs (out-of-range "
          "violation observed: %s)" % (len(rep.entries), len(inside), outside_fail))


def test_criterion_03_annihilator_oracle_equivalence():
    tested = []
    for n in range(2, 41):
        if polys.euler_phi(n) <= 16:
            assert annihilator_In_formula(n) == annihilator_In_oracle(n), n
            tested.append(n)
    for n in (3, 4, 5, 7, 8, 9, 16, 25):
        assert annihilator_In_formula(n).rank == 0, n
    lat12 = annihilator_In_formula(12)
    ok = lat12.hnf == ((1, 1),) and len(tested) >= 20
    _line(3, ok, "formula == oracle for %d levels; zero lattices and the "
          "level-12 group-sum lattice confirmed" % len(tested))


def test_criterion_04_projection_laws():
    equal_pairs = [(4, 3), (4, 2), (6, 2), (6, 5), (8, 3), (10, 3), (12, 5),
                   (9, 3), (12, 2), (14, 3)]
    for n, ell in equal_pairs:
        assert not (ell == 2 and n % 2 == 1)
        big = annihilator_mu(n * ell)
        assert project_annihilator(n * ell, n, big) == annihilator_mu(n), (n, ell)
    for n in (3, 5):
        proj = project_annihilator(2 * n, n, annihilator_mu(2 * n))
        target = annihilator_mu(n)
        assert proj != target and proj.index_in(target) == 2, n
    for m, n in [(24, 12), (36, 12)]:
        proj = project_annihilator(m, n, annihilator_Tn(m, starred=True))
        assert proj == annihilator_Tn(n, starred=True), (m, n)
    _line(4, True, "%d equality pairs, index-2 strictness at (3,2), (5,2), "
          "and the starred equalities at (24,12), (36,12)" % len(equal_pairs))


def test_criterion_05_image_claim():
    results = []
    for m, p in [(12, 3), (15, 5), (20, 5)]:
        b0 = stabilization_b0(m, p)
        r0 = image_is_p_times_I(m, p, b0)
        r1 = image_is_p_times_I(m, p, b0 + 1)
        results.append(((m, p), b0, r0, r1))
        assert r0 and r1, (m, p)
    _line(5, True, "push-forward equals p times the lower annihilator at "
          "b0 and b0+1 for " + ", ".join("(%d,%d) b0=%d" % (mp[0], mp[1], b0)
                                         for mp, b0, _, _ in results))


def test_criterion_06_exponent_roundtrip():
    from circdist.distributions import solve_exponent
    rng = random.Random(2024)
    levels = [n for n in range(3, 37) if n not in (1, 2)]
    count = 0
    while count < 50:
        n = rng.choice(levels)
        reps = group_reps(n, True)
        r = grelt(n, True, {rng.choice(reps): rng.randint(-3, 3),
                            rng.choice(reps): rng.randint(-3, 3),
                            1: rng.randint(0, 2)})
        u = r.act_on(eps_n(n), assume_tau_fixed=True)
        j = solve_exponent(u)
        assert j is not None, (n, r)
        diff = j - r
        if diff.coeffs:
            assert annihilator_In_formula(n).contains(diff), (n, r, j)
        count += 1
    # mutation test: a corrupted exponent outside the annihilator coset is
    # always rejected by the exact verification
    rejected = 0
    for n in (12, 15, 21, 33, 36):
        reps = group_reps(n, True)
        r = grelt(n, True, {1: 2, reps[-1]: 3})
        u = r.act_on(eps_n(n), assume_tau_fixed=True)
        bump = grelt(n, True, {reps[-1]: 1})
        if annihilator_In_formula(n).contains(bump):
            continue
        assert not verify_exponent_identity(u, r + bump), n
        rejected += 1
    _line(6, rejected > 0, "50 random towers recovered modulo the "
          "annihilator; %d corrupted exponents rejected" % rejected)


def test_criterion_07_kappa_digits():
    cases = [
        (4, 3, RTower.scalar(2), 2),
        (3, 2, RTower.scalar(1), 1),
        (5, 3, RTower.combo(5, [(1, 1), (1, 2)]), 1),
    ]
    summaries = []
    for m, p, tower, c in cases:
        support = divisor_closure([m * p ** 5])
        table = power_by_tower(
            power_by_tower(phi_table(support, verify=False),
                           RTower.preset("one_plus_tau"), verify=False),
            tower, verify=False)
        kd = coleman.kappa_digits(table, m, p, 5, k_list=[0, 1, 2, 3])
        assert kd.stabilization <= 1, (m, p)
        for e in kd.entries:
            for k, dp, dm in e.digits:
                if k >= kd.stabilization:
                    mod = p ** (e.n - k)
                    assert dp == c % mod, (m, p, e.n, k)
                    assert dm == (-c) % mod, (m, p, e.n, k)
        verdict = coleman.boundedness_report(kd)
        ks = [k for k in kd.k_list if kd.stabilization <= k <= 3]
        assert all(verdict.bounded(k) for k in ks), (m, p)
        summaries.append("(%d,%d): digits=c mod p^(n-k) for k in %s" % (m, p, ks))
    _line(7, True, "; ".join(summaries))


def test_criterion_08_norm_compatible_family():
    for p, q in [(3, 5), (5, 3)]:
        fam = coleman.ncnd_family(p, q, 3)
        assert fam.report.passed, (p, q)
        sec = coleman.section_independence_check(fam)
        assert sec.passed, (p, q)
    _line(8, True, "exact norm-compatibility and section-independence for "
          "(3,5) and (5,3) up to depth 3")


def test_criterion_09_valuation_constancy():
    support = divisor_closure([3, 4, 9, 5, 25, 8])
    f = phi_table(support, verify=False)
    for tower in (RTower.scalar(3), RTower.combo(5, [(1, 1), (2, 2)])):
        ft = power_by_tower(f, tower)
        rep = coleman.valuation_constancy(ft)
        assert rep.passed
        const = [e for e in rep.entries if e["check"] == "constancy"][0]
        assert const["value"] == 3
        levels = {e["level"] for e in rep.entries if e["check"] == "valuation"}
        assert levels == {3, 4, 9, 5, 25, 8, 2}
        # a torsion twist shifts nothing
        twisted = table_product(ft, delta_table([3, 5], support))
        rep2 = coleman.valuation_constancy(twisted)
        assert rep2.passed
        assert [e for e in rep2.entries if e["check"] == "constancy"][0]["value"] == 3
    rep0 = coleman.valuation_constancy(delta_table([3], support))
    assert [e for e in rep0.entries if e["check"] == "constancy"][0]["value"] == 0
    _line(9, True, "valuation equals the augmentation (3) at all prime-power "
          "levels; torsion tables contribute 0")


def test_criterion_10_euler_conditions():
    support = divisor_closure([273])
    f = phi_table(support, verify=False)
    rep = check_euler_conditions(f, 3, 91)
    assert rep.passed
    names = {e["check"] for e in rep.entries}
    assert names == {"ES1", "ES2", "ES3", "ES4"}
    twisted = table_product(f, delta_table([3], support))
    rep2 = check_euler_conditions(twisted, 3, 91)
    es4_fail = [e for e in rep2.entries if e["check"] == "ES4" and not e["pass"]]
    assert es4_fail and all("witness" in e for e in es4_fail)
    _line(10, True, "ES1-ES4 pass for the generator at m=3, r=91; the "
          "congruence-violating twist fails ES4 with a witness")


def test_criterion_11_determinism():
    configs = [
        ["verify", "--table", "phi", "--support", "closure(30)"],
        ["strictness", "--table", "delta(3)", "--support", "closure(15)"],
        ["annihilator", "--n", "12", "--oracle"],
        ["idempotent", "--n", "24"],
        ["kappa", "--table", "pow(phi, one_plus_tau)", "--support",
         "closure(24)", "--m", "3", "--p", "2", "--depth", "3", "--k", "1"],
        ["boundedness", "--table", "pow(phi, one_plus_tau)", "--support",
         "closure(24)", "--m", "3", "--p", "2", "--depth", "3", "--k", "1"],
        ["ncnd", "--p", "3", "--q", "5", "--a-max", "3"],
        ["euler", "--table", "phi", "--support", "closure(21)",
         "--m", "3", "--r", "7"],
        ["torsion", "--table", "delta(3,5)", "--support", "closure(45,12)"],
        ["valuation", "--table", "pow(phi, 3)", "--support", "closure(9,8,25)"],
    ]
    for cfg in configs:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "circdist.cli",
                                   *cfg, "--seed", "11"],
                                  capture_output=True)
            outs.append(proc.stdout)
            json.loads(proc.stdout)   # must be valid JSON
        assert outs[0] == outs[1], cfg
    _line(11, True, "byte-identical JSON across repeated runs of all %d "
          "commands" % len(configs))
