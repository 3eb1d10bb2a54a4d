"""The exponent solver's float solve against the fixed-point solve it
replaced.

`distributions._character_solve` divides by the eigenvalues of log eps_n
in the character basis of G_n^+ and transforms back in doubles;
`oracle_solve.fixed_point_solve` rounds the pseudo-inverse and the logs to
62-bit fixed point and multiplies them in Z[G_n^+].  Both are the
least-squares solution of least norm, so they agree to rounding, also at
levels where the numpy lstsq oracle cannot run.
"""

import random

import pytest

import oracle_solve
from circdist import cyclotomic, distributions as dist, groupring, polys
from circdist.groupring import eps_n, grelt, group_reps, idempotent_e_n


def _check(n, logs):
    got = dist._character_solve(n, logs)
    ref = oracle_solve.fixed_point_solve(n, logs)
    scale = max(map(abs, ref))
    assert len(got) == len(ref) == len(logs), n
    assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * scale, n


def test_character_solve_matches_the_fixed_point_solve():
    for n in range(3, 500):
        rng = random.Random(n)
        u = grelt(n, True, {1: 2, group_reps(n, True)[-1]: -1}).act_on(
            eps_n(n), assume_tau_fixed=True)
        _check(n, [rng.gauss(0.0, 3.0) for _ in group_reps(n, True)])
        _check(n, cyclotomic.embedding_logs(u))


@pytest.mark.parametrize("n", [10935, 32805])
def test_character_solve_matches_the_fixed_point_solve_deep(n):
    rng = random.Random(n)
    _check(n, [rng.gauss(0.0, 3.0) for _ in group_reps(n, True)])


@pytest.mark.parametrize("n", [972, 10935])
def test_character_solve_takes_no_integer_product(n, monkeypatch):
    idempotent_e_n(n)       # cached first, so that the spy watches the solve alone
    calls = []

    def spy(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(polys, "int_poly_mul", spy("int_poly_mul", polys.int_poly_mul))
    monkeypatch.setattr(groupring, "_product", spy("_product", groupring._product))
    rng = random.Random(n)
    dist._character_solve(n, [rng.gauss(0.0, 3.0) for _ in group_reps(n, True)])
    assert calls == [], n
