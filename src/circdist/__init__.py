"""circdist: exact arithmetic for distribution tables on roots of unity.

Subpackages split along the algebra: `cyclotomic` (field arithmetic in
Q(zeta_n) with compatible roots), `groupring` (Z[G_n] / Z[G_n^+], idempotents
and annihilator lattices), `distributions` (finite-level tables, relation and
congruence verification, exponent solving), `coleman` (digit towers,
boundedness evidence, the norm-compatible family), and `cli`.
"""

from .cyclotomic import (CycElt, GaloisElt, LevelError, PrecisionError,
                         SubfieldError, act, is_p_unit, is_totally_positive,
                         is_unit, norm_down, one, raise_level, reduce_mod_ell,
                         sigma_ell, tau, valuation_at_p,
                         vanishes_at_all_primes_above, zeta)
from .distributions import (DistTable, Report, RTower, SupportError,
                            check_euler_conditions, classify_torsion,
                            delta_table, divisor_closure, phi_table,
                            power_by_tower, solve_exponent, table_conj,
                            table_product, verify_exponent_identity,
                            verify_relations, verify_strictness)
from .groupring import (GroupRingElt, HypothesisNotMetError, IdealLattice,
                        annihilator_In_formula, annihilator_In_oracle,
                        annihilator_Tn, annihilator_mu, decomposition_group,
                        eps_n, idempotent_e_n, image_is_p_times_I,
                        project_annihilator, stabilization_b0)
from .polys import cyclotomic_polynomial as cyclotomic_polynomial_coeffs
from .coleman import (BoundednessVerdict, KappaDigits, boundedness_report,
                      kappa_digits, ncnd_family, section_independence_check,
                      synthetic_digits, valuation_constancy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
