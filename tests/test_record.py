"""`triadica.record` against frozen standard-library dataclasses.

Each record shape is declared twice by one function, once with `record` and
once with `dataclass(frozen=True)`, so that both twins have the same
qualified name and must print, compare and hash alike.
"""

from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from fractions import Fraction
from functools import cached_property

import pytest

from triadica.record import record

from support import replace


def declare(decorate):
    """The record shapes under test, each decorated by `decorate`."""

    @decorate
    class Plain:
        x: int
        y: tuple

    @decorate
    class Defaulted:
        name: str
        items: tuple = ()
        flag: bool = False

    @decorate
    class Checked:
        n: int
        label: str

        def __post_init__(self):
            if self.n < 0:
                raise ValueError(f"negative n {self.n}")

    @decorate
    class Single:
        value: object

    @decorate
    class Cached:
        basis: tuple

        @cached_property
        def total(self):
            return sum(self.basis)

    return {cls.__name__: cls for cls in (Plain, Defaulted, Checked, Single, Cached)}


RECORDS = declare(record)
TWINS = declare(dataclass(frozen=True))

HALF = Fraction(1, 2)
EXAMPLES = [
    ("Plain", (1, (HALF, Fraction(-3))), {}),
    ("Plain", (0,), {"y": ()}),
    ("Plain", (), {"y": (None, "s"), "x": -7}),
    ("Defaulted", ("a",), {}),
    ("Defaulted", ("b", (HALF,)), {}),
    ("Defaulted", ("c",), {"flag": True}),
    ("Defaulted", ("d", (1, 2), True), {}),
    ("Checked", (3, "ok"), {}),
    ("Single", (HALF,), {}),
    ("Single", ((("nested",), frozenset({1, 2})),), {}),
    ("Cached", ((1, 2, 3),), {}),
]
IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(EXAMPLES)]


@pytest.mark.parametrize("name,args,kwargs", EXAMPLES, ids=IDS)
def test_twins_agree_on_eq_hash_and_repr(name, args, kwargs):
    rec = RECORDS[name](*args, **kwargs)
    twin = TWINS[name](*args, **kwargs)
    assert repr(rec) == repr(twin)
    assert hash(rec) == hash(twin)
    assert rec == RECORDS[name](*args, **kwargs)
    assert twin == TWINS[name](*args, **kwargs)
    assert vars(rec) == vars(twin)


@pytest.mark.parametrize("name,args,kwargs", EXAMPLES, ids=IDS)
def test_equality_holds_only_within_one_class(name, args, kwargs):
    rec = RECORDS[name](*args, **kwargs)
    assert rec.__eq__(TWINS[name](*args, **kwargs)) is NotImplemented
    assert rec != TWINS[name](*args, **kwargs)
    assert rec.__eq__(args) is NotImplemented


def test_different_fields_compare_unequal_like_the_twin():
    for make in (RECORDS["Plain"], TWINS["Plain"]):
        assert make(1, ()) != make(2, ())
        assert make(1, ()) != make(1, (0,))
        assert make(1, (HALF,)) == make(True, (Fraction(2, 4),))


def test_set_and_dict_iteration_orders_match_the_twin():
    values = [(x, (Fraction(x, 7), "s" * (x % 3))) for x in range(-40, 40)]
    records = {RECORDS["Plain"](*v) for v in values}
    twins = {TWINS["Plain"](*v) for v in values}
    assert [(r.x, r.y) for r in records] == [(t.x, t.y) for t in twins]


@pytest.mark.parametrize("name,args,kwargs", EXAMPLES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(name, args, kwargs):
    rec = RECORDS[name](*args, **kwargs)
    field = next(iter(vars(rec)))
    for target in (rec, TWINS[name](*args, **kwargs)):
        with pytest.raises(AttributeError):
            setattr(target, field, None)
        with pytest.raises(AttributeError):
            delattr(target, field)
        with pytest.raises(AttributeError):
            target.extra = 1
    assert repr(rec) == repr(RECORDS[name](*args, **kwargs))


@pytest.mark.parametrize("args,kwargs", [
    ((1,), {}),                       # missing
    ((), {"y": ()}),                  # missing, by keyword
    ((1, (), 2), {}),                 # extra positional
    ((1, ()), {"z": 3}),              # unknown keyword
    ((1,), {"x": 1, "y": ()}),        # duplicate
], ids=["missing", "missing_keyword", "extra", "unknown_keyword", "duplicate"])
def test_bad_arguments_raise_type_error(args, kwargs):
    for make in (RECORDS["Plain"], TWINS["Plain"]):
        with pytest.raises(TypeError):
            make(*args, **kwargs)


def test_defaults_fill_the_trailing_fields():
    rec = RECORDS["Defaulted"]("x")
    assert (rec.name, rec.items, rec.flag) == ("x", (), False)
    assert RECORDS["Defaulted"]("x", flag=True).items == ()
    with pytest.raises(TypeError):
        RECORDS["Defaulted"]()


def test_a_field_without_default_after_a_defaulted_one_is_refused():
    for decorate in (record, dataclass(frozen=True)):
        with pytest.raises(TypeError):
            @decorate
            class Bad:
                a: int = 0
                b: int


def test_post_init_runs_on_construction_and_on_replace():
    for make, swap in ((RECORDS["Checked"], replace),
                       (TWINS["Checked"], dataclass_replace)):
        with pytest.raises(ValueError, match="negative n -1"):
            make(-1, "no")
        ok = make(1, "yes")
        with pytest.raises(ValueError, match="negative n -2"):
            swap(ok, n=-2)
        assert repr(swap(ok, label="moved")) == repr(make(1, "moved"))


def test_replace_keeps_unchanged_fields_and_refuses_unknown_ones():
    rec = RECORDS["Defaulted"]("x", (1,), True)
    moved = replace(rec, items=(2,))
    assert repr(moved) == repr(dataclass_replace(TWINS["Defaulted"]("x", (1,), True),
                                                 items=(2,)))
    assert rec.items == (1,)
    with pytest.raises(TypeError):
        replace(rec, nope=1)


def test_cached_property_is_computed_once_on_a_frozen_record():
    rec = RECORDS["Cached"]((1, 2, 3))
    assert rec.total == 6
    assert vars(rec)["total"] == 6
    assert rec.total is vars(rec)["total"]
    assert rec == RECORDS["Cached"]((1, 2, 3))
    assert hash(rec) == hash(TWINS["Cached"]((1, 2, 3)))
    with pytest.raises(AttributeError):
        rec.total = 7
