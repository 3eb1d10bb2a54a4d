"""The value classes behave as frozen dataclasses with the same fields
would (Report as a plain one): equality, hashing, repr, read-only
attributes, pickling and construction."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from circdist import coleman, cyclotomic, distributions, groupring
from circdist.cyclotomic import CycElt, zeta
from circdist.groupring import grelt

# each frozen class with one instance's fields, in declaration order; any
# values do except where the constructor checks them (GaloisElt)
FROZEN = [
    (cyclotomic.GaloisElt, {"level": 12, "a": 5}),
    (groupring.GroupRingElt, {"level": 12, "plus": True, "nums": (2, -1), "den": 3}),
    (groupring.IdealLattice, {"level": 12, "plus": True, "hnf": ((1, 0), (0, 2))}),
    (distributions.DistTable, {"support": (1, 2), "values": ((1, "f1"), (2, "f2"))}),
    (coleman.KappaEntry, {"n": 1, "level": 9, "a_n": "a_1", "projected": "proj",
                          "digits": ((1, 0, 2),)}),
    (coleman.KappaDigits, {"m": 3, "p": 3, "depth": 1, "k_list": (1,),
                           "entries": ("entry",), "stabilization": 0}),
    (coleman.BoundednessVerdict, {"m": 3, "p": 3, "n_range": (1, 2),
                                  "per_k": ((1, "verdict"),), "evidence_only": False}),
    (coleman.NcndFamily, {"p": 2, "q": 3, "a_max": 2, "levels": (18,),
                          "exponents": ("Pi_2",), "family_values": ("value",),
                          "report": "report"}),
]
IDS = [cls.__name__ for cls, _ in FROZEN]


def _twin(cls, fields, frozen=True):
    """An instance of the dataclass with cls's name and fields."""
    return dataclasses.make_dataclass(cls.__name__, list(fields), frozen=frozen)(**fields)


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields):
    x, y = cls(*fields.values()), cls(**fields)
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(_twin(cls, fields))
    assert [getattr(x, f) for f in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, fields):
    x = cls(**fields)
    sub = type("Sub", (cls,), {"__slots__": ()})(**fields)
    for other in (_twin(cls, fields), sub, tuple(fields.values())):
        assert x != other and other != x


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields):
    assert repr(cls(**fields)) == repr(_twin(cls, fields))


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_attributes_are_read_only(cls, fields):
    x = cls(**fields)
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(**fields)


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields):
    x = cls(**fields)
    copies = [pickle.loads(pickle.dumps(x, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(x), copy.copy(x)]
    for y in copies:
        assert type(y) is cls and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
def test_construction_rejects_missing_extra_and_repeated_fields(cls, fields):
    names, values = list(fields), list(fields.values())
    bad = [(values[:1], {}), (values + [0], {}), (values, {"extra": 0}),
           (values, {names[0]: values[0]}), (values[:2], {names[1]: values[1]})]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_boundedness_verdict_is_evidence_only_by_default():
    v = coleman.BoundednessVerdict(3, 3, (1, 2), ())
    assert v.evidence_only is True
    assert v == coleman.BoundednessVerdict(m=3, p=3, n_range=(1, 2), per_k=(),
                                           evidence_only=True)


def test_boundedness_verdict_json_reads_evidence_only():
    for flag in (True, False):
        v = coleman.BoundednessVerdict(3, 3, (1, 2), (), evidence_only=flag)
        assert v.to_json()["evidence_only"] is flag


def test_report_is_a_mutable_unhashable_value():
    fields = {"name": "relations", "entries": [{"pass": True}]}
    r = distributions.Report(**fields)
    assert r == distributions.Report(*fields.values())
    assert repr(r) == repr(_twin(distributions.Report, fields, frozen=False))
    assert r != _twin(distributions.Report, fields, frozen=False)
    with pytest.raises(TypeError):
        hash(r)
    for y in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert y == r and y.entries is not r.entries
    a, b = distributions.Report("a"), distributions.Report("b")
    assert a.entries == [] and a.entries is not b.entries
    r.entries.append({"pass": False})
    r.name = "renamed"
    assert (r.name, r.passed) == ("renamed", False)
    del r.entries
    with pytest.raises(AttributeError):
        r.entries


def test_group_ring_coefficients_are_a_cache_outside_the_value():
    x = grelt(12, True, {1: Fraction(2, 3), 5: -1})
    y = groupring.GroupRingElt(x.level, x.plus, x.nums, x.den)
    assert x.coeffs == ((1, Fraction(2, 3)), (5, Fraction(-1)))
    assert x.coeffs is x.coeffs
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert pickle.loads(pickle.dumps(x)).coeffs == x.coeffs


def test_cyc_elt_cache_slots_stay_outside_the_value():
    slots = ("_coeffs", "_is_tau_fixed", "_double_embeddings", "_inverse")
    x = grelt(12, True, {1: 2, 5: -1}).act_on(groupring.eps_n(12))
    assert cyclotomic.is_tau_fixed(x) and cyclotomic.embedding_logs(x)
    assert cyclotomic.inverse(x) * x == cyclotomic.one(12) and x.coeffs
    assert all(hasattr(x, s) for s in slots)
    fresh = CycElt._from_ints(x.level, x.nums, x.den)
    assert not any(hasattr(fresh, s) for s in slots)
    assert x == fresh and fresh == x and hash(x) == hash(fresh)
    assert repr(x) == repr(fresh) and pickle.dumps(x) == pickle.dumps(fresh)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x)):
        assert y == x and y is not x
        assert not any(hasattr(y, s) for s in slots)


def test_galois_elt_still_checks_its_unit():
    with pytest.raises(ValueError):
        cyclotomic.GaloisElt(6, 2)
    with pytest.raises(ValueError):
        cyclotomic.GaloisElt(level=6, a=2)
    with pytest.raises(cyclotomic.LevelError):
        cyclotomic.GaloisElt(0, 1)


def test_cyc_elt_keeps_its_hash_and_rejects_deletion():
    x = zeta(12) + 1
    assert hash(x) == hash((x.level, x.nums, x.den))
    assert x == CycElt(12, x.coeffs) and x != x.coeffs
    for name in ("level", "nums", "den", "_coeffs", "extra"):
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, 0)


# ---------------------------------------------------------------------------
# the numerator-vector base shared by CycElt and GroupRingElt


def _vectors():
    """Elements of both types with zero and nonzero numerators, and zero."""
    x = zeta(15) ** 3 - Fraction(2, 5) * zeta(15)
    g = grelt(15, True, {1: Fraction(2, 3), 4: -1})
    return [x, cyclotomic.zero(15), g, groupring.GroupRingElt(15, True, (0, 0, 0, 0), 1),
            grelt(15, False, {2: 3, 7: Fraction(-1, 2)})]


def test_nonzero_lists_the_nonzero_numerators():
    for x in _vectors():
        assert list(x.nonzero()) == [(i, c) for i, c in enumerate(x.nums) if c]
        assert list(x.nonzero()) == list(x.nonzero())


def test_reading_nonzero_stores_nothing_on_the_value():
    for x, fresh in zip(_vectors(), _vectors()):
        before = (hash(x), repr(x), pickle.dumps(x))
        list(x.nonzero())
        assert x == fresh and fresh == x
        assert (hash(x), repr(x), pickle.dumps(x)) == before
        assert pickle.loads(pickle.dumps(x)) == x
        for act in (lambda: setattr(x, "_nonzero", ()), lambda: delattr(x, "_nonzero")):
            with pytest.raises(AttributeError):
                act()
        assert not hasattr(x, "__dict__") and "_nonzero" not in type(x).__slots__


def test_vector_hash_is_the_hash_of_the_field_tuple():
    x, _, g, _, h = _vectors()
    assert hash(x) == hash((x.level, x.nums, x.den))
    for y in (g, h):
        assert hash(y) == hash((y.level, y.plus, y.nums, y.den))


def test_vector_equality_reads_every_field():
    one_plus = groupring.GroupRingElt(2, True, (1,), 1)
    assert one_plus != groupring.GroupRingElt(2, False, (1,), 1)
    assert one_plus != groupring.GroupRingElt(1, True, (1,), 1)
    assert CycElt(2, [1]) != CycElt(1, [1])
    assert zeta(5) != zeta(5) * Fraction(1, 2) and zeta(5) != zeta(5) * 2


def test_mismatched_sums_keep_their_errors():
    with pytest.raises(cyclotomic.LevelError, match="level mismatch: 12 vs 15"):
        zeta(12) + zeta(15)
    with pytest.raises(cyclotomic.LevelError, match="level mismatch: 12 vs 15"):
        zeta(12) - zeta(15)
    g = grelt(12, True, {1: 1})
    for other in (grelt(12, False, {1: 1}), grelt(15, True, {1: 1})):
        for op in (g.__add__, g.__sub__, g.__mul__):
            with pytest.raises(cyclotomic.LevelError, match="group-ring mismatch"):
                op(other)


def test_cyc_elt_sums_still_coerce_rationals():
    x = zeta(12)
    assert x + Fraction(1, 3) == x + cyclotomic.from_rational(12, Fraction(1, 3))
    assert (x - 2).coeffs == (Fraction(-2), Fraction(1), Fraction(0), Fraction(0))
    assert (x * Fraction(3, 4)).den == 4 and Fraction(3, 4) * x == x * Fraction(3, 4)
    assert (-x).nums == (0, -1, 0, 0) and -(-x) == x


def test_scaling_and_negation_normalize_both_types():
    g = grelt(12, True, {1: Fraction(2, 3), 5: -1})
    assert (g * 3).nums == (2, -3) and (g * 3).den == 1
    assert (g * Fraction(3, 2)).nums == (2, -3) and (g * Fraction(3, 2)).den == 2
    assert (g * 0).den == 1 and (g * 0).is_zero() and not g.is_zero()
    assert -g == g * -1 and (g - g).is_zero() and (g - g).den == 1
    assert (g + g).is_integral() is False and (g * 3).denominator_lcm() == 1


def test_both_constructors_check_the_length_of_their_coefficients():
    with pytest.raises(ValueError, match="vector of length 3 for 4 coefficients"):
        CycElt(12, [1, 2, Fraction(1, 2)])
    with pytest.raises(ValueError, match="vector of length 1 for 2 coefficients"):
        groupring.from_vector(12, True, [Fraction(1, 3)])
    assert CycElt(12, (Fraction(1, 2), 0, "1/3", 1.5)).nums == (3, 0, 2, 9)
