"""The package's value types: repr, immutability, equality, hash and copying.

Five result types are NamedTuples; the four that validate or derive
fields (``Permutation``, ``RecordProfile``, ``CountTable`` and
``PatternSpec``) are ``__slots__`` classes.
"""

import copy
import pickle

import pytest

from recstats.extremal import ExtremalResult, GammaBounds
from recstats.perm import Permutation, RecordProfile
from recstats.probabilities import PatternSpec
from recstats.scaling import DeviationReport, ScaledCurve
from recstats.tables import REC, SREC, CountTable
from recstats.temme import TemmeEstimate

# (build, repr, name of a field, another value for it); build makes a new
# instance on every call
CASES = {
    "Permutation": (lambda: Permutation((2, 1, 3)),
                    "Permutation(entries=(2, 1, 3))", "entries", (1, 2, 3)),
    "RecordProfile": (lambda: RecordProfile((1, 3)),
                      "RecordProfile(positions=(1, 3), rec=2, srec=4)", "positions", (1, 2)),
    "CountTable": (lambda: CountTable(2, REC, (0, 1, 1)),
                   "CountTable(n=2, kind='rec', coeffs=(0, 1, 1))", "coeffs", (0, 0, 2)),
    "PatternSpec": (lambda: PatternSpec(3, {2: "Y", 3: "N"}),
                    "PatternSpec(n=3, marks={2: 'Y', 3: 'N'})", "marks", {2: "N"}),
    "ScaledCurve": (lambda: ScaledCurve(3, SREC, ((0.0, 1.0), (0.5, 0.25))),
                    "ScaledCurve(n=3, stat='srec', samples=((0.0, 1.0), (0.5, 0.25)))",
                    "samples", ()),
    "DeviationReport": (lambda: DeviationReport(2, REC, 0.5, 0.25, 0.0),
                        "DeviationReport(n=2, stat='rec', sup_dev=0.5, tau=0.25, argmax_x=0.0)",
                        "tau", 0.5),
    "ExtremalResult": (lambda: ExtremalResult(6, 12, 30, (1, 5, 6)),
                       "ExtremalResult(n=6, k=12, m=30, witness=(1, 5, 6))", "m", 31),
    "GammaBounds": (lambda: GammaBounds(1, 0.5, 1.5),
                    "GammaBounds(i0=1, log_lower=0.5, log_upper=1.5)", "i0", 2),
    "TemmeEstimate": (lambda: TemmeEstimate(20, 10, 0.5, 1.25, 2.0, 0.75, 30.5),
                      "TemmeEstimate(n=20, m=10, u1=0.5, t1=1.25, B=2.0, g=0.75, "
                      "log_estimate=30.5)", "m", 11),
}
NAMEDTUPLES = ("ScaledCurve", "DeviationReport", "ExtremalResult", "GammaBounds",
               "TemmeEstimate")
SLOTS = ("Permutation", "RecordProfile", "CountTable", "PatternSpec")
ALL = pytest.mark.parametrize("name", list(CASES))


def fields(value) -> tuple:
    """The field values in declaration order, by attribute access."""
    names = value._fields if isinstance(value, tuple) else type(value).__slots__
    return tuple(getattr(value, name) for name in names)


@ALL
def test_repr(name):
    build, text, _, _ = CASES[name]
    assert repr(build()) == text


@ALL
def test_fields_cannot_be_assigned(name):
    build, _, field, other = CASES[name]
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == CASES[name][1]


@ALL
def test_equality(name):
    build, _, field, other = CASES[name]
    assert build() == build()
    assert not build() != build()
    assert build() != object()
    if name in NAMEDTUPLES:
        assert build()._replace(**{field: other}) != build()


@pytest.mark.parametrize("name", SLOTS)
def test_equality_reads_every_field(name):
    # a slots class built with one field changed; RecordProfile derives
    # rec and srec from positions, so its changed build differs in all three
    changed = {
        "Permutation": Permutation((1, 2, 3)),
        "RecordProfile": RecordProfile((1, 2)),
        "CountTable": CountTable(2, REC, (0, 0, 2)),
        "PatternSpec": PatternSpec(3, {2: "N"}),
    }[name]
    assert changed != CASES[name][0]()
    assert changed == copy.copy(changed)


@ALL
def test_hash(name):
    build = CASES[name][0]
    if name == "PatternSpec":
        # it holds a dict
        with pytest.raises(TypeError):
            hash(build())
        return
    assert hash(build()) == hash(build()) == hash(fields(build()))
    assert len({build(), build()}) == 1


@ALL
def test_pickle_and_deepcopy_round_trip(name):
    value = CASES[name][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert fields(twin) == fields(value)


@pytest.mark.parametrize("name", NAMEDTUPLES)
def test_result_types_are_tuples(name):
    value = CASES[name][0]()
    assert isinstance(value, tuple)
    assert value == fields(value)
    assert tuple(value) == fields(value)


@pytest.mark.parametrize("name", SLOTS)
def test_validated_types_are_not_tuples(name):
    value = CASES[name][0]()
    assert not isinstance(value, tuple)
    assert value != fields(value)
    assert not hasattr(value, "__dict__")

