"""The norm under the exponent solver's bound, and the valuation read from
the norm, against what they replaced.

`polys.cyclo_norm` stops its CRT run once the modulus exceeds twice a bound
on |N(x)|.  With the bound the solver passes (`_log_norm_bound`, summed
from the embedding moduli) it must return the norm the l1 bound returns:
on eps powers (units, and p-units at prime-power levels), products of
conjugates of 1 - zeta, random integral elements and non-integral ones at
levels up to 120.  `valuation_at_p` reads v_p of the norm; at prime-power
levels up to 125 it must agree with the division loop kept in
`oracle_arith`, for integral and non-integral x.
"""

from fractions import Fraction
from math import isqrt, log

from hypothesis import HealthCheck, given, settings, strategies as st

import oracle_arith as oracle
from circdist import polys
from circdist.cyclotomic import (CycElt, act, norm_to_q, one, tau,
                                 valuation_at_p, zeta)
from circdist.distributions import _log_norm_bound
from circdist.groupring import eps_n, grelt, group_reps, units

CASES = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

LEVELS = tuple(range(3, 121))
PRIME_POWERS = tuple(n for n in range(2, 126) if len(polys.prime_factors(n)) == 1)


@st.composite
def eps_powers(draw):
    n = draw(st.sampled_from(tuple(n for n in LEVELS if n % 4 != 2)))
    reps = group_reps(n, True)
    terms = {draw(st.sampled_from(reps)): draw(st.integers(-3, 3)),
             1: draw(st.integers(0, 2))}
    return grelt(n, True, terms).act_on(eps_n(n), assume_tau_fixed=True)


@st.composite
def cyclotomic_p_units(draw):
    # products of conjugates of 1 - zeta at prime-power levels
    n = draw(st.sampled_from(PRIME_POWERS[1:]))
    gs = units(n)
    terms = {draw(st.sampled_from(gs)): draw(st.integers(0, 3)) for _ in range(3)}
    x = grelt(n, False, terms).act_on(one(n) - zeta(n))
    return x * act(tau(n), x)


@st.composite
def plain(draw):
    n = draw(st.sampled_from(LEVELS))
    phi = polys.euler_phi(n)
    size = draw(st.sampled_from((2, 100)))
    nums = draw(st.lists(st.integers(-size, size), min_size=phi, max_size=phi)
                .filter(any))
    den = draw(st.sampled_from((1, 1, 7, 36)))
    return CycElt(n, tuple(Fraction(c, den) for c in nums))


@CASES
@given(st.one_of(eps_powers(), cyclotomic_p_units(), plain()))
def test_norm_under_the_solver_bound_matches_the_l1_bound(x):
    coeffs = list(x.coeffs)
    assert (polys.cyclo_norm(coeffs, x.level, _log_norm_bound(x))
            == polys.cyclo_norm(coeffs, x.level))


def test_the_modulus_covers_twice_the_bound():
    # N(a + zeta_3) = a^2 - a + 1 lies between p / 2 and p for the first
    # split prime p of level 3, and the l1 bound needs a second prime too; a
    # modulus that only covered the bound itself would stop at p and return
    # N - p
    p = polys.split_prime(3, polys.SPLIT_FROM)[0]
    a = isqrt(3 * p // 4)
    nrm = a * a - a + 1
    assert p // 2 < nrm < p
    assert polys.cyclo_norm([a, 1], 3, log(nrm)) == nrm
    assert polys.cyclo_norm([-a, -1], 3, log(nrm)) == nrm


def test_a_unit_bound_needs_one_prime(monkeypatch):
    calls = []
    norm_mod_p = polys._norm_mod_p
    monkeypatch.setattr(polys, "_norm_mod_p",
                        lambda prim, p, roots: calls.append(p)
                        or norm_mod_p(prim, p, roots))
    u = grelt(60, True, {1: 2, 7: -3, 11: 1}).act_on(eps_n(60), assume_tau_fixed=True)
    assert abs(norm_to_q(u, _log_norm_bound(u))) == 1
    assert len(calls) == 1
    del calls[:]
    assert abs(norm_to_q(u)) == 1
    assert len(calls) > 1


@st.composite
def prime_power_elements(draw):
    n = draw(st.sampled_from(PRIME_POWERS))
    p = polys.prime_factors(n)[0]
    phi = polys.euler_phi(n)
    nums = draw(st.lists(st.integers(-50, 50), min_size=phi, max_size=phi)
                .filter(any))
    den = draw(st.sampled_from((1, 1, p, p * p, 6, 5 * p)))
    x = CycElt(n, tuple(Fraction(c, den) for c in nums))
    return x * (one(n) - zeta(n)) ** draw(st.integers(0, 4)), p


@CASES
@given(prime_power_elements())
def test_valuation_from_the_norm_matches_the_division_loop(case):
    x, p = case
    assert valuation_at_p(x, p) == oracle.valuation_at_p(x, p)
