"""The norm's CRT stop rule, the solver's unit check, and the valuation
read from a Taylor shift, against what they replaced.

`polys.cyclo_norm` stops its CRT run once the modulus exceeds twice the l1
bound on |N(x)|.  `distributions.solve_exponent` computes no norm for a u
that a candidate certifies.  `valuation_at_p` reads the coefficients of x
on the powers of 1 - zeta; at prime-power levels up to 125 and at 243 it
must agree with the division loop kept in `oracle_arith`, for integral and
non-integral x.
"""

from fractions import Fraction
from math import isqrt

from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracle_arith as oracle
from circdist import polys
from circdist.cyclotomic import CycElt, one, valuation_at_p, zeta
from circdist.distributions import solve_exponent
from circdist.groupring import eps_n, grelt

CASES = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

PRIME_POWERS = tuple(n for n in range(2, 126) if len(polys.prime_factors(n)) == 1) + (243,)


def test_the_modulus_covers_twice_the_bound():
    # N(a + zeta_3) = a^2 - a + 1 lies between p / 2 and p for the first
    # split prime p of level 3, and the l1 bound needs a second prime too; a
    # modulus that only covered the bound itself would stop at p and return
    # N - p
    p = polys.split_prime(3, polys.SPLIT_FROM)[0]
    a = isqrt(3 * p // 4)
    nrm = a * a - a + 1
    assert p // 2 < nrm < p
    assert polys.cyclo_norm([a, 1], 3) == nrm
    assert polys.cyclo_norm([-a, -1], 3) == nrm


def test_a_certified_solve_computes_no_norm(monkeypatch):
    # the unit check runs only when no candidate certifies: a unit at
    # phi(60) = 16 that one does costs no norm residue at all
    calls = []
    cyclo_norm = polys.cyclo_norm
    monkeypatch.setattr(polys, "cyclo_norm",
                        lambda nums, n, den=1: calls.append(n)
                        or cyclo_norm(nums, n, den))
    u = grelt(60, True, {1: 2, 7: -3, 11: 1}).act_on(eps_n(60), assume_tau_fixed=True)
    assert solve_exponent(u) is not None
    assert not calls


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


def _dense_times_pi_power(n, k):
    """A dense element with coefficients in [-100, 100], times (1 - zeta)^k."""
    phi = polys.euler_phi(n)
    nums = [(37 * i * i + 11 * i + n) % 201 - 100 for i in range(phi)]
    return CycElt(n, nums) * (one(n) - zeta(n)) ** k, polys.prime_factors(n)[0]


@CASES
@given(prime_power_elements())
@example(_dense_times_pi_power(121, 5))
@example(_dense_times_pi_power(125, 5))
@example(_dense_times_pi_power(243, 3))
def test_valuation_from_the_taylor_shift_matches_the_division_loop(case):
    x, p = case
    assert valuation_at_p(x, p) == oracle.valuation_at_p(x, p)
