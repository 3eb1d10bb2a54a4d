import random
from fractions import Fraction
from math import lcm

import pytest

from circdist import cyclotomic as cyc
from circdist import distributions as dist
from circdist import groupring as gr
from circdist import polys
from circdist.cyclotomic import (CycElt, act, embedding_logs, one, raise_level,
                                 zeta, zeta_power)
from circdist.distributions import (DistTable, RTower, SupportError,
                                    check_euler_conditions, classify_torsion,
                                    delta_table, divisor_closure, phi_table,
                                    power_by_tower, solve_exponent,
                                    table_conj, table_product,
                                    verify_exponent_identity, verify_relations,
                                    verify_strictness)
from circdist.groupring import eps_n, grelt, group_reps


def test_divisor_closure():
    assert divisor_closure([12]) == (2, 3, 4, 6, 12)
    assert divisor_closure([4, 15]) == (2, 3, 4, 5, 15)
    with pytest.raises(SupportError):
        DistTable.from_dict({4: one(4)})   # missing the divisor 2


def test_phi_table_values_and_construction_check():
    t = phi_table(divisor_closure([12, 24, 36, 60]))
    assert t.value(2) == one(2) * 2
    assert t.value(12) == one(12) - zeta(12)
    assert verify_relations(t).passed


def test_equivariant_extension():
    t = phi_table(divisor_closure([15]))
    # z_15^3 is exactly z_5 under the compatible-roots convention
    assert t.value_at_root(15, 3) == t.value(5)
    assert t.value_at_root(15, 6) == act(2, t.value(5))
    assert t.value_at_root(15, 2) == act(2, t.value(15))
    with pytest.raises(ValueError):
        t.value_at_root(15, 15)


def test_delta_table_values_and_errors():
    S = divisor_closure([9, 6])
    d = delta_table([3], S)
    assert d.value(9) == -one(9)
    assert d.value(6) == one(6)
    assert d.value(3) == -one(3)
    for bad in ([2], [9], [], [3, 15]):
        with pytest.raises(ValueError):
            delta_table(bad, S)
    # squares to the constant-1 table
    sq = table_product(d, d)
    assert all(sq.value(n) == one(n) for n in S)
    assert verify_relations(d).passed


def test_tower_presets_and_actions():
    S = divisor_closure([12, 45])
    f = phi_table(S)
    assert power_by_tower(f, RTower.preset("one")).as_dict() == f.as_dict()
    epst = power_by_tower(f, RTower.preset("one_plus_tau"))
    for n in S:
        assert epst.value(n) == eps_n(n)
    minus = power_by_tower(f, RTower.preset("one_minus_tau"))
    for n in S:
        assert minus.value(n) == -zeta(n)


def test_tower_combo_compatibility():
    r = RTower.combo(5, [(2, 1), (3, 2)])
    for n, m in [(5, 15), (15, 45), (5, 45), (10, 30)]:
        assert r.at_level(m).project(to_level=n) == r.at_level(n)
    # the base-level element is exactly the requested combination
    assert r.at_level(5) == grelt(5, False, {1: 2, 2: 3})


def test_tower_explicit_validation():
    a = grelt(3, False, {1: 2})
    b = grelt(9, False, {1: 1, 4: 1})   # projects to 2 * identity at level 3
    t = RTower.explicit({3: a, 9: b})
    assert t.at_level(3) == a and t.at_level(9) == b
    with pytest.raises(ValueError):
        RTower.explicit({3: grelt(3, False, {1: 1}), 9: b})
    with pytest.raises(SupportError):
        t.at_level(5)


def test_tower_module_axiom():
    # (f^s)^r = f^(rs), with the product tower materialized explicitly
    rng = random.Random(30)
    S = divisor_closure([36])
    f = phi_table(S)
    for _ in range(3):
        r = RTower.combo(6, [(rng.randint(-2, 2), 1), (rng.randint(-2, 2), 5)])
        s = RTower.combo(4, [(rng.randint(-2, 2), 1), (rng.randint(0, 2), 3)])
        rs = RTower.explicit({36: r.at_level(36) * s.at_level(36)})
        lhs = power_by_tower(power_by_tower(f, s), r)
        rhs = power_by_tower(f, rs)
        assert lhs.as_dict() == rhs.as_dict()


def test_verify_relations_detects_perturbation():
    S = divisor_closure([12, 24])
    vals = dict(phi_table(S).as_dict())
    vals[12] = vals[12] * zeta(12)   # unit twist off the distribution
    broken = DistTable.from_dict(vals)
    rep = verify_relations(broken)
    assert not rep.passed
    assert any(e["m"] == 12 or e["m"] * e["ell"] == 12 for e in rep.failures())
    assert all("witness" in e for e in rep.failures())


def test_product_of_verified_tables_verifies():
    S = divisor_closure([30, 12])
    f = phi_table(S)
    d = delta_table([3, 5], S)
    assert verify_relations(table_product(f, d)).passed
    assert verify_relations(table_conj(f)).passed


def test_strictness_phi_passes_and_delta3_fails():
    S = divisor_closure([15, 12, 20])
    f = phi_table(S)
    assert verify_strictness(f).passed
    d3 = delta_table([3], S)
    rep = verify_strictness(d3)
    bad = [e for e in rep.failures()]
    assert bad and any(e["n"] == 3 and e["ell"] == 5 for e in bad)


def test_strictness_truncation_passes_inside_its_primes():
    # congruence primes within the negative-support set pass; a prime
    # outside it is genuinely violated at the first odd-prime level
    S = divisor_closure([n for n in range(2, 70)])
    d = delta_table([3, 5, 7, 11, 13], S)
    rep = verify_strictness(d)
    inside = [e for e in rep.entries if e["ell"] in (2, 3, 5, 7, 11, 13)]
    outside = [e for e in rep.entries if e["ell"] not in (2, 3, 5, 7, 11, 13)]
    assert all(e["pass"] for e in inside)
    assert any(not e["pass"] and e["n"] == 3 and e["ell"] == 17 for e in outside)


def test_classify_torsion():
    S = divisor_closure([45, 12])
    assert classify_torsion(delta_table([3, 5], S)) == ("delta", (3, 5))
    ones = DistTable.from_dict({n: one(n) for n in S})
    assert classify_torsion(ones) == ("delta", ())
    vals = dict(delta_table([3, 5], S).as_dict())
    vals[4] = -one(4)
    assert classify_torsion(DistTable.from_dict(vals)) == ("not-torsion-form", None)
    vals[4] = one(4) * 2
    with pytest.raises(ValueError):
        classify_torsion(DistTable.from_dict(vals))


def test_solve_exponent_identity_and_roundtrip():
    # u = eps_n: the canonical solution is the identity coset
    for n in (5, 12, 15):
        j = solve_exponent(eps_n(n))
        assert j is not None
        diff = j - gr.identity(n, True)
        lat = gr.annihilator_In_formula(n)
        assert (not diff.coeffs) or lat.contains(diff)


def test_solve_exponent_recovers_twisted_powers():
    rng = random.Random(31)
    for n in (12, 15, 21, 36):
        reps = group_reps(n, True)
        r = grelt(n, True, {rng.choice(reps): rng.randint(1, 3),
                            rng.choice(reps): rng.randint(-2, 2), 1: 2})
        u = r.act_on(eps_n(n), assume_tau_fixed=True)
        j = solve_exponent(u)
        assert j is not None
        diff = j - r
        if diff.coeffs:
            assert gr.annihilator_In_formula(n).contains(diff)


def test_solve_exponent_denominator_handling():
    # a half-integral target: the exact check squares both sides, so the
    # identity u^2 = eps^2 is what gets certified
    n = 9
    u = eps_n(n)
    j = grelt(n, True, {1: Fraction(1, 2)}) * 2
    assert verify_exponent_identity(u, j)
    half = grelt(n, True, {1: Fraction(1, 2)})
    assert not verify_exponent_identity(u, half)


def test_solve_exponent_preconditions():
    with pytest.raises(ValueError):
        solve_exponent(zeta(5))             # not tau-fixed
    with pytest.raises(ValueError):
        solve_exponent(-eps_n(5))           # not totally positive
    with pytest.raises(ValueError):
        solve_exponent(one(5) * 2)          # not a 5-unit
    with pytest.raises(ValueError):
        solve_exponent(eps_n(12) * 4)       # not a unit at a composite level


def test_solve_exponent_reports_no_solution():
    # 1/4 is tau-fixed, totally positive and not integral (so no unit check
    # applies), but no rational exponent of eps_12 produces it; the exact
    # check must refuse every reconstruction
    assert solve_exponent(one(12) * Fraction(1, 4)) is None


def test_verification_rejects_corrupted_exponents():
    rng = random.Random(32)
    for n in (12, 15, 21):
        reps = group_reps(n, True)
        r = grelt(n, True, {1: 2, reps[-1]: 3})
        u = r.act_on(eps_n(n), assume_tau_fixed=True)
        for _ in range(5):
            bump = grelt(n, True, {rng.choice(reps): rng.choice([-2, -1, 1, 2])})
            bad = r + bump
            if gr.annihilator_In_formula(n).contains(bump):
                continue   # lands in the same coset: not a corruption
            assert not verify_exponent_identity(u, bad)


def test_euler_conditions_pass_for_the_generator():
    S = divisor_closure([21])
    rep = check_euler_conditions(phi_table(S), 3, 7)
    assert rep.passed
    checks = {e["check"] for e in rep.entries}
    assert checks == {"ES1", "ES2", "ES3", "ES4"}


def test_euler_conditions_vacuous_and_errors():
    S = divisor_closure([21])
    f = phi_table(S)
    rep = check_euler_conditions(f, 3, 1)
    assert rep.passed and rep.entries[0]["note"].startswith("vacuous")
    with pytest.raises(ValueError):
        check_euler_conditions(f, 3, 5)     # 5 is not 1 mod 3
    with pytest.raises(ValueError):
        check_euler_conditions(f, 3, 49)    # not squarefree
    with pytest.raises(SupportError):
        check_euler_conditions(phi_table(divisor_closure([3])), 3, 7)


def test_euler_es4_fails_for_twisted_table():
    S = divisor_closure([21])
    twisted = table_product(phi_table(S), delta_table([3], S))
    rep = check_euler_conditions(twisted, 3, 7)
    es4 = [e for e in rep.entries if e["check"] == "ES4"]
    assert any(not e["pass"] for e in es4)
    assert any("witness" in e for e in es4 if not e["pass"])


def test_exponent_denominator_profile():
    j = grelt(12, True, {1: Fraction(5, 12), 5: Fraction(1, 2)})
    prof = dist.exponent_denominator_profile(j)
    assert prof == {"denominator": 12, "factorization": {2: 2, 3: 1}}
    prof = dist.exponent_denominator_profile(grelt(12, True, {1: 3}))
    assert prof == {"denominator": 1, "factorization": {}}


def test_table_json_roundtrip():
    S = divisor_closure([12])
    f = phi_table(S)
    assert DistTable.from_json(f.to_json()).as_dict() == f.as_dict()


# u = eps_n^r whose smallest embedding lies below double precision (about 18
# digits under the sum of |coefficients|): read in floats it is rounding noise
PAST_DOUBLE = ((96, {1: 2, 23: 3, 29: -3}), (84, {1: 2, 37: -2, 41: -3}),
               (72, {1: 1, 7: -3, 29: 3}))


def _past_double(n, terms):
    r = grelt(n, True, terms)
    return r, r.act_on(eps_n(n), assume_tau_fixed=True)


@pytest.mark.parametrize("n,terms", PAST_DOUBLE)
def test_solve_exponent_below_double_precision(n, terms):
    from mpmath import mp, mpf, cos, log, pi
    r, u = _past_double(n, terms)
    logs = embedding_logs(u)
    with mp.workdps(100):
        for c, got in zip(group_reps(n, True), logs):
            val = sum(mpf(co.numerator) / co.denominator * cos(2 * pi * (i * c % n) / n)
                      for i, co in enumerate(u.coeffs))
            assert abs(got - float(log(val))) < 2.0 ** -20
    j = solve_exponent(u)
    assert j is not None
    diff = j - r
    assert not diff.coeffs or gr.annihilator_In_formula(n).contains(diff)


def test_mpmath_precision_is_left_as_found():
    from mpmath import iv, mp
    from circdist.cyclotomic import is_totally_positive
    before = (mp.dps, mp.prec, iv.prec)
    gr.annihilator_In_oracle(12)
    assert (mp.dps, mp.prec, iv.prec) == before
    _, u = _past_double(*PAST_DOUBLE[0])
    assert is_totally_positive(u)          # ambiguous in floats: interval path
    assert (mp.dps, mp.prec, iv.prec) == before
    assert solve_exponent(u) is not None
    assert (mp.dps, mp.prec, iv.prec) == before


@pytest.mark.parametrize("n,terms", PAST_DOUBLE)
def test_solve_exponent_evaluates_each_embedding_once(n, terms, monkeypatch):
    # the solve's logs and every certificate's moduli come from one double
    # pass, kept on u: a pass fills u's "_double_embeddings" slot
    _, u = _past_double(n, terms)
    intervals, passes = [], []
    real_interval, real_set = cyc.interval_embedding, cyc._set

    def counted(x, c, terms=None):
        intervals.append((x, c))
        return real_interval(x, c, terms)

    def watched_set(x, slot, value):
        if slot == "_double_embeddings":
            passes.append(x)
        real_set(x, slot, value)

    monkeypatch.setattr(cyc, "interval_embedding", counted)
    monkeypatch.setattr(cyc, "_set", watched_set)
    assert solve_exponent(u) is not None
    assert len(passes) == 1 and passes[0] is u
    assert intervals                       # past double precision somewhere
    assert len(intervals) == len(set(intervals))
    assert all(x == u for x, _ in intervals)


@pytest.mark.parametrize("n,terms", PAST_DOUBLE)
def test_embedding_logs_reads_the_numerators_once(n, terms, monkeypatch):
    # every embedding that doubles cannot read goes to interval_embedding,
    # and u's numerators are scanned for the first of them alone
    _, u = _past_double(n, terms)
    want = embedding_logs(u)
    scans, intervals = [], []
    real_nonzero, real_interval = cyc._Vector.nonzero, cyc.interval_embedding

    def nonzero(x):
        scans.append(x)
        return real_nonzero(x)

    def counted(x, c, terms=None):
        intervals.append(c)
        return real_interval(x, c, terms)

    monkeypatch.setattr(cyc._Vector, "nonzero", nonzero)
    monkeypatch.setattr(cyc, "interval_embedding", counted)
    assert embedding_logs(u) == want
    assert len(intervals) > 1 and scans == [u]


def _criterion_07_value(m, p, tower, n):
    """Criterion 07's u at level n = m p^k: (1 - z_n)^((1 + tau) r_n)."""
    table = power_by_tower(
        power_by_tower(phi_table(divisor_closure([n]), verify=False),
                       RTower.preset("one_plus_tau"), verify=False),
        tower, verify=False)
    return table.value(n)


def test_solve_certificate_and_positivity_hash_no_field_element(monkeypatch):
    # the tau flag, the double pass and the inverse are kept on the element
    # they describe, so no cache on these paths is keyed by a CycElt's value
    cases = [_past_double(n, terms)[1] for n, terms in PAST_DOUBLE]
    cases += [_criterion_07_value(5, 3, RTower.combo(5, [(1, 1), (1, 2)]), 405),
              _criterion_07_value(4, 3, RTower.scalar(2), 972)]

    def unhashable(x):
        raise AssertionError("a level-%d CycElt was hashed" % x.level)

    monkeypatch.setattr(CycElt, "__hash__", unhashable)
    for u in cases:
        assert cyc.is_totally_positive(u)
        j = solve_exponent(u)
        assert j is not None and verify_exponent_identity(u, j)
        assert j.den == 1 and j.act_on(eps_n(u.level)) == u


def test_construction_checks_raise_when_relations_fail(monkeypatch):
    failing = dist.Report("relations", [{"check": "norm-relation", "pass": False}])
    monkeypatch.setattr(dist, "verify_relations", lambda table: failing)
    S = divisor_closure([12])
    with pytest.raises(ArithmeticError, match="construction check failed"):
        phi_table(S)
    f = phi_table(S, verify=False)
    with pytest.raises(ArithmeticError, match="norm relations"):
        power_by_tower(f, RTower.scalar(2))
    assert power_by_tower(f, RTower.scalar(2), verify=False).value(12) == f.value(12) ** 2


def _lift_unit_by_division(a, base, target):
    # a on the prime powers of target that divide base, 1 on the others, each
    # prime power split off by repeated division
    x, mod, rest = 0, 1, target
    for p in polys.prime_factors(target):
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        x, mod = polys.crt_pair(x, mod, a % q if base % p == 0 else 1, q), mod * q
    return x


def _tower_by_kind(kind, data, n):
    # the preset, scalar and combination towers as separate constructions:
    # sigma_1 and sigma_tau at n, the identity times k, and a sum of sigma's
    # at lcm(base, n) projected to n
    if kind == "preset":
        one_, tau_ = gr.sigma(n, 1), gr.sigma(n, cyc.tau(n).a)
        return {"one": one_, "tau": tau_, "one_plus_tau": one_ + tau_,
                "one_minus_tau": one_ - tau_}[data]
    if kind == "scalar":
        return grelt(n, False, {1: data})
    base, terms = data
    big = lcm(base, n)
    acc = grelt(big, False, {})
    for c, a in terms:
        acc = acc + gr.sigma(big, _lift_unit_by_division(a, base, big)) * c
    return acc.project(to_level=n)


def test_tower_kinds_match_their_separate_constructions():
    for name in RTower._PRESETS:
        tower = RTower.preset(name)
        for n in range(2, 401):
            assert tower.at_level(n) == _tower_by_kind("preset", name, n), (name, n)
    for k in (-2, 0, 3):
        tower = RTower.scalar(k)
        for n in range(2, 401):
            assert tower.at_level(n) == _tower_by_kind("scalar", k, n), (k, n)
    # 37 = 7 mod 30 and 11 + 12 = 11 mod 12: repeated units add their
    # coefficients, and a zero sum drops out
    for base, terms in ((5, [(1, 1), (2, 2), (-1, 4)]),
                        (12, [(2, 1), (1, 5), (-3, 7), (1, 11), (-1, 23)]),
                        (30, [(1, 1), (1, 7), (-2, 11), (3, 29), (1, 37)])):
        tower = RTower.combo(base, terms)
        for n in range(1, 201):
            expected = _tower_by_kind("combo", (base, [(c, a % base) for c, a in terms]), n)
            assert tower.at_level(n) == expected, (base, n)


def test_tower_one_plus_and_minus_tau_at_level_2():
    # tau is the identity at level 2: 1 + tau is 2 sigma_1, 1 - tau is 0
    assert RTower.preset("one_plus_tau").at_level(2) == grelt(2, False, {1: 2})
    assert RTower.preset("one_minus_tau").at_level(2) == grelt(2, False, {})
