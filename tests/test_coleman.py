import random
from fractions import Fraction

import pytest

from circdist import coleman
from circdist import groupring as gr
from circdist.coleman import (boundedness_report, kappa_digits, ncnd_family,
                              section_independence_check, synthetic_digits,
                              valuation_constancy)
from circdist.cyclotomic import norm_down, one, zeta
from circdist.distributions import (RTower, delta_table, divisor_closure,
                                    phi_table, power_by_tower, solve_exponent,
                                    table_product, verify_exponent_identity)
from circdist.groupring import eps_n, grelt, group_reps


def eps_table(top):
    f = phi_table(divisor_closure([top]))
    return power_by_tower(f, RTower.preset("one_plus_tau"))


def test_kappa_digits_for_the_generator():
    # table of eps values itself: exponent 1 at every level, all digits 1
    tab = eps_table(3 * 2 ** 4)
    kd = kappa_digits(tab, 3, 2, 4, k_list=[1, 2])
    for e in kd.entries:
        for k, dp, dm in e.digits:
            assert dp == 1 % 2 ** (e.n - k)
            assert dm == (-1) % 2 ** (e.n - k)
    v = boundedness_report(kd)
    assert v.bounded(1) and v.bounded(2)
    assert v.evidence_only


def test_kappa_digits_track_the_tower_coefficient():
    # f = eps^r: the digits are the identity coefficient of r at the base,
    # reduced mod p^(n-k), exactly
    tab = power_by_tower(eps_table(5 * 3 ** 4), RTower.combo(5, [(1, 1), (2, 2)]))
    kd = kappa_digits(tab, 5, 3, 4, k_list=[1, 2, 3])
    c = 1   # identity coefficient of 1 + 2*sigma_2 at level 5
    for e in kd.entries:
        for k, dp, dm in e.digits:
            if k >= kd.stabilization:
                assert dp == c % 3 ** (e.n - k)
                assert dm == (-c) % 3 ** (e.n - k)


def test_kappa_digits_at_depth_8_of_the_5_3_tower():
    # the criterion 07 tower (5, 3) to level 5 * 3^8 = 32805: digits c mod
    # p^(n - k) with c = 1 at every k >= b0; its exponents c e_n are dense
    m, p, depth = 5, 3, 8
    support = divisor_closure([m * p ** depth])
    table = power_by_tower(power_by_tower(phi_table(support, verify=False),
                                          RTower.preset("one_plus_tau"), verify=False),
                           RTower.combo(5, [(1, 1), (1, 2)]), verify=False)
    kd = kappa_digits(table, m, p, depth, k_list=range(depth))
    assert kd.stabilization == 1
    checked = 0
    for e in kd.entries:
        for k, dp, dm in e.digits:
            if k >= kd.stabilization:
                assert (dp, dm) == (1, -1 % p ** (e.n - k)), (e.n, k)
                checked += 1
    assert checked == depth * (depth - 1) // 2
    # the certified dense exponent at 10935 with one coefficient changed
    n = m * p ** 7
    u = table.value(n)
    j = solve_exponent(u)
    reps = group_reps(n, True)
    assert sum(1 for v in j.nums if v) > len(reps) // 2
    bump = grelt(n, True, {reps[5]: 1})
    assert not gr.annihilator_In_formula(n).contains(bump)
    assert verify_exponent_identity(u, j)
    assert not verify_exponent_identity(u, j + bump)


def test_kappa_digits_negative_tower_is_minus_bounded():
    tab = power_by_tower(eps_table(3 * 2 ** 4), RTower.scalar(-1))
    kd = kappa_digits(tab, 3, 2, 4, k_list=[1, 2])
    v = boundedness_report(kd)
    for k in (1, 2):
        d = dict(v.per_k)[k]
        assert d["bounded_minus"]
        assert d["tail_minus"] == 1


def test_digit_choice_independence_above_stabilization():
    # shifting the solved exponent by annihilator elements must not change
    # any digit with k at or above the reported stabilization bound
    rng = random.Random(40)
    tab = power_by_tower(eps_table(5 * 3 ** 3), RTower.scalar(2))
    kd = kappa_digits(tab, 5, 3, 3, k_list=[1, 2])
    for e in kd.entries:
        lat = gr.annihilator_In_formula(e.level)
        if not lat.hnf:
            continue
        for _ in range(4):
            shift = lat.basis_elements()[rng.randrange(lat.rank)] * rng.randint(-2, 2)
            shifted = (e.a_n + shift).project(to_level=5)
            c = shifted.coefficient(1)
            for k, dp, dm in e.digits:
                if k >= kd.stabilization:
                    mod = 3 ** (e.n - k)
                    inv = pow(c.denominator, -1, mod)
                    assert (c.numerator * inv) % mod == dp


def test_projected_exponents_converge():
    # for fixed k the projections of consecutive exponents agree mod p^(n-k)
    tab = power_by_tower(eps_table(5 * 3 ** 3), RTower.combo(5, [(2, 1), (1, 2)]))
    kd = kappa_digits(tab, 5, 3, 3, k_list=[1])
    k = kd.stabilization
    for e1, e2 in zip(kd.entries, kd.entries[1:]):
        if e1.n <= k:
            continue
        mod = 3 ** (e1.n - k)
        for g in group_reps(5, True):
            d = e2.projected.coefficient(g) - e1.projected.coefficient(g)
            assert d.denominator % 3 != 0
            assert (d.numerator * pow(d.denominator, -1, mod)) % mod == 0


def test_boundedness_of_non_integral_padic_stream():
    # digit stream of -1/(p-1): digits (p^t - 1)/(p-1) grow on both sides
    p = 3
    kd = synthetic_digits(5, p, 6, [0, 1], -1, p - 1)
    for e in kd.entries:
        for k, dp, dm in e.digits:
            t = e.n - k
            assert dp == (p ** t - 1) // (p - 1)
    v = boundedness_report(kd)
    for k in (0, 1):
        d = dict(v.per_k)[k]
        assert not d["bounded_plus"] and not d["bounded_minus"]


def test_zero_digit():
    kd = synthetic_digits(5, 3, 4, [0, 1], 0, 1)
    for e in kd.entries:
        for _, dp, dm in e.digits:
            assert dp == 0 and dm == 0


def test_ncnd_family_verifies():
    fam = ncnd_family(3, 5, 3)
    assert fam.report.passed
    assert fam.levels == (15, 45, 135)
    # norm compatibility re-checked here directly
    assert norm_down(fam.value(3), 45) == fam.value(2)


def test_ncnd_group_sum_annihilates():
    fam = ncnd_family(3, 5, 3)
    entries = [e for e in fam.report.entries if e["check"] == "group-sum-annihilates"]
    assert entries and all(e["pass"] for e in entries)
    # independent instance: the full norm of eps at a two-prime level is 1
    assert gr.group_sum(15, True).act_on(eps_n(15), assume_tau_fixed=True) == one(15)


def test_ncnd_section_independence():
    rep = section_independence_check(ncnd_family(3, 5, 3))
    assert rep.passed
    checks = {e["check"] for e in rep.entries}
    assert "one-step-norm-agrees" in checks


def test_ncnd_input_validation():
    for bad in [(3, 3, 3), (2, 5, 3), (3, 5, 2), (3, 9, 3)]:
        with pytest.raises(ValueError):
            ncnd_family(*bad)


def test_ncnd_family_rejects_an_unknown_section():
    # only "smallest" and "largest" name a section; a misspelt one is
    # refused rather than read as "largest"
    for section in ("largets", "Smallest", "", None):
        with pytest.raises(ValueError, match="section"):
            ncnd_family(3, 5, 3, section=section)


def test_valuation_constancy():
    S = divisor_closure([9, 8, 5, 25, 3, 4])
    f = phi_table(S)
    rep = valuation_constancy(f)
    assert rep.passed
    assert [e for e in rep.entries if e["check"] == "constancy"][0]["value"] == 1
    f3 = power_by_tower(f, RTower.scalar(3))
    rep3 = valuation_constancy(f3)
    assert rep3.passed
    assert [e for e in rep3.entries if e["check"] == "constancy"][0]["value"] == 3
    d = delta_table([3, 5], S)
    repd = valuation_constancy(d)
    assert repd.passed
    assert [e for e in repd.entries if e["check"] == "constancy"][0]["value"] == 0
    # the product shifts by the augmentation only
    repp = valuation_constancy(table_product(f3, d))
    assert repp.passed
    assert [e for e in repp.entries if e["check"] == "constancy"][0]["value"] == 3


def test_valuation_constancy_needs_two_levels():
    with pytest.raises(ValueError):
        valuation_constancy(phi_table(divisor_closure([3])))


def test_kappa_digits_preconditions():
    # values must be tau-fixed (the table of 1 - z_n is not)
    f = phi_table(divisor_closure([3 * 2 ** 3]))
    with pytest.raises(ValueError):
        kappa_digits(f, 3, 2, 3, k_list=[1])
    # insufficient support
    tab = eps_table(3 * 2 ** 2)
    with pytest.raises(KeyError):
        kappa_digits(tab, 3, 2, 5, k_list=[1])


def test_kappa_digits_json():
    tab = eps_table(3 * 2 ** 3)
    kd = kappa_digits(tab, 3, 2, 3, k_list=[1])
    obj = kd.to_json()
    assert obj["m"] == 3 and obj["p"] == 2
    assert len(obj["entries"]) == 3
    assert obj["entries"][2]["digits"]["1"] == [1, (-1) % 4]
