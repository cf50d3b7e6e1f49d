"""Value semantics of the package's records and of HalfIntValue.

The records are namedtuple subclasses: construction by keyword or position with
the same defaults and validation messages as before, no assignment, equality and
hashing by field values, and the field-by-field repr.  Being tuples, they also
iterate, index and compare equal to a plain tuple of their fields.  HalfIntValue is
an arithmetic type and none of that tuple behaviour applies to it.
"""

import pickle
from fractions import Fraction

import pytest

from anchor_moments.asymptotics import AsymptoticReport, CoefficientSet, IdentityCheckResult
from anchor_moments.moments import FloatMomentBreakdown, MomentBreakdown, MomentQuery, SensorMoment
from anchor_moments.simulation import SimulationConfig, SimulationResult
from anchor_moments.special_functions import HalfIntValue

_SENSOR_FIELDS = {"i": 1, "t": Fraction(1, 2), "e_total": Fraction(1, 4),
                  "e_signed_part": Fraction(0), "e_folded_part": Fraction(1, 4)}
_SENSOR = SensorMoment(**_SENSOR_FIELDS)

# (class, field values in order, fields left to their defaults)
RECORDS = [
    (SimulationConfig, {"n": 5, "a": 1, "trials": 10, "seed": 0, "workers": 1},
     ("seed", "workers")),
    (SimulationResult, {"mean": 0.5, "std_error": 0.01, "ci95": (0.48, 0.52), "trials": 10,
                        "seed": 3}, ()),
    (MomentQuery, {"n": 4, "a": 3}, ()),
    (SensorMoment, _SENSOR_FIELDS, ()),
    (MomentBreakdown, {"per_sensor": (_SENSOR,), "total": Fraction(1, 4)}, ()),
    (FloatMomentBreakdown, {"n": 4, "a": 3, "total": 0.125}, ()),
    (IdentityCheckResult, {"name": "beta", "passed": True, "residual": 0.0, "detail": ""},
     ("detail",)),
    (CoefficientSet, {"a": 3, "entries": {(1, 0): Fraction(1, 2)}}, ()),
    (AsymptoticReport, {"a": 2, "constant": HalfIntValue(Fraction(1, 6)),
                        "constant_float": 1 / 6, "n_grid": (10, 100), "measured": (0.1, 0.2),
                        "normalized": (0.6, 0.7), "fitted_exponent": -1.0,
                        "degenerate_fit": False}, ()),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize(("cls", "values", "defaulted"), RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, values, defaulted):
    by_keyword = cls(**values)
    assert cls(*values.values()) == by_keyword
    assert cls(**{f: v for f, v in values.items() if f not in defaulted}) == by_keyword
    assert cls._fields == tuple(values)
    assert [getattr(by_keyword, f) for f in values] == list(values.values())
    with pytest.raises(TypeError):
        cls(*values.values(), None)


@pytest.mark.parametrize(("cls", "values", "defaulted"), RECORDS, ids=IDS)
def test_records_refuse_assignment(cls, values, defaulted):
    record = cls(**values)
    for field in values:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__: __slots__ is empty


@pytest.mark.parametrize(("cls", "values", "defaulted"), RECORDS, ids=IDS)
def test_equality_hashing_and_pickling_go_by_field_values(cls, values, defaulted):
    record = cls(**values)
    assert record == cls(**values)
    assert pickle.loads(pickle.dumps(record)) == record
    # the API change: a record is the tuple of its fields
    assert record == tuple(values.values()) and list(record) == list(values.values())
    if cls is CoefficientSet:  # a dict field is unhashable, as in the frozen dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:  # the frozen dataclass hashed the tuple of its fields too
        assert hash(record) == hash(cls(**values)) == hash(tuple(values.values()))


@pytest.mark.parametrize(("cls", "values", "defaulted"), RECORDS, ids=IDS)
def test_repr_is_the_field_by_field_form(cls, values, defaulted):
    fields = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({fields})"


def test_repr_text():
    assert repr(SimulationConfig(n=5, a=1, trials=10)) == \
        "SimulationConfig(n=5, a=1, trials=10, seed=0, workers=1)"
    assert repr(IdentityCheckResult("x", True, 0.0)) == \
        "IdentityCheckResult(name='x', passed=True, residual=0.0, detail='')"
    assert repr(HalfIntValue(Fraction(3, 2), 5, 1)) == \
        "HalfIntValue(rational=Fraction(6, 1), sqrt2_pow=1, sqrt_pi_pow=1)"


def test_records_differ_by_any_field():
    assert SimulationConfig(5, 1, 10) != SimulationConfig(5, 1, 10, seed=1)
    assert MomentQuery(4, 3) != MomentQuery(4, 5)
    assert IdentityCheckResult("x", True, 0.0) != IdentityCheckResult("x", True, 0.0, "d")


@pytest.mark.parametrize(("args", "message"), [
    ((0, 1, 10), "n and a must be >= 1"),
    ((1, 0, 10), "n and a must be >= 1"),
    ((1, 1, 0), "trials must be >= 1"),
    ((1, 1, 10, -1), "seed must fit in 64 bits"),
    ((1, 1, 10, 2**64), "seed must fit in 64 bits"),
    ((1, 1, 10, 0, 0), "workers must be >= 1"),
])
def test_simulation_config_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimulationConfig(*args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimulationConfig(**dict(zip(("n", "a", "trials", "seed", "workers"), args)))


@pytest.mark.parametrize(("args", "message"), [((0, 1), "n must be >= 1"),
                                               ((1, 0), "a must be >= 1")])
def test_moment_query_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MomentQuery(*args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        MomentQuery(n=args[0], a=args[1])


def test_moment_query_odd_is_a_property():
    assert MomentQuery(4, 3).odd and not MomentQuery(4, 2).odd
    assert "odd" not in MomentQuery._fields
    with pytest.raises(AttributeError):
        MomentQuery(4, 3).odd = False


# --- HalfIntValue: immutable and hashable, but not a tuple -------------------------------------


def test_halfint_normalizes_on_construction():
    v = HalfIntValue(3, 4, 1)
    assert (v.rational, v.sqrt2_pow, v.sqrt_pi_pow) == (Fraction(12), 0, 1)
    assert type(v.rational) is Fraction
    w = HalfIntValue(Fraction(1), -3, 2)
    assert (w.rational, w.sqrt2_pow, w.sqrt_pi_pow) == (Fraction(1, 4), 1, 2)
    zero = HalfIntValue(Fraction(0), 1, 3)
    assert (zero.rational, zero.sqrt2_pow, zero.sqrt_pi_pow) == (0, 0, 0)
    assert HalfIntValue(rational=Fraction(1, 2), sqrt_pi_pow=1) == HalfIntValue(1 / 2, 0, 1)


def test_halfint_is_immutable():
    v = HalfIntValue(Fraction(1, 2), 1, 1)
    for name in ("rational", "sqrt2_pow", "sqrt_pi_pow", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
    with pytest.raises(AttributeError):
        del v.rational
    assert v == HalfIntValue(Fraction(1, 2), 1, 1)


def test_halfint_equality_and_hashing():
    v = HalfIntValue(Fraction(3), 2, 1)
    assert v == HalfIntValue(Fraction(6), 0, 1)
    assert hash(v) == hash(HalfIntValue(Fraction(6), 0, 1)) == hash((Fraction(6), 0, 1))
    assert len({v, HalfIntValue(6, 0, 1), HalfIntValue(6, 1, 1)}) == 2
    assert v != HalfIntValue(Fraction(6), 1, 1)
    # equal only to a HalfIntValue: neither a number nor the tuple of its fields
    assert HalfIntValue(Fraction(2)) != 2
    assert v != (Fraction(6), 0, 1)
    assert pickle.loads(pickle.dumps(v)) == v


def test_halfint_has_no_order_and_no_tuple_behaviour():
    a, b = HalfIntValue(Fraction(1)), HalfIntValue(Fraction(2))
    with pytest.raises(TypeError):
        a < b  # noqa: B015
    with pytest.raises(TypeError):
        a <= b  # noqa: B015
    with pytest.raises(TypeError):
        iter(a)
    with pytest.raises(TypeError):
        a[0]  # noqa: B018
    assert not isinstance(a, tuple)
    assert a + b == HalfIntValue(Fraction(3))  # arithmetic, not concatenation
