"""The value classes, on errors.Frozen: equal by class and fields, hashed as
the tuple of their fields, printed as Name(field=value, ...), immutable, and
copied and pickled through their constructors."""

import copy
import pickle

import pytest

from halg import (GF, QQ, AlgebraDoc, BilinearFamily, BilinearMap, CheckReport,
                  CoefficientFamily, Field, LinearMap, OmegaSet, OperatorFamily,
                  SearchResult, SearchSpec, Violation, catalog)

# each class's fields, in its constructor's order
FIELDS = {
    Field: ("kind", "p"),
    LinearMap: ("field", "rows"),
    BilinearMap: ("field", "c"),
    OmegaSet: ("labels",),
    BilinearFamily: ("role", "maps"),
    OperatorFamily: ("ops", "weights"),
    AlgebraDoc: ("field", "dim", "omega", "kind", "families", "operators", "twist"),
    Violation: ("axiom", "labels", "basis", "lhs", "rhs"),
    CheckReport: ("verdict", "violations"),
    SearchSpec: ("base", "target", "omega_size", "weights", "limit", "budget"),
    SearchResult: ("docs", "truncated"),
    CoefficientFamily: ("coeffs",),
}

# the classes none of whose fields holds a dict, at any depth
HASHABLE = {Field, LinearMap, BilinearMap, OmegaSet, Violation, CheckReport}


def _pairs():
    """(x, y) per class: y differs from x in one field."""
    doc, other = catalog("N2-Pnil-w0"), catalog("N2-Pnil-w0-F3")
    id2 = LinearMap.identity(QQ, 2)
    flip = Violation("hom-assoc", ("a",), (0, 1, 1), (1, 0), (0, 1))
    return [
        (GF(5), GF(7)),
        (LinearMap(QQ, ((1, 2), (3, 4))), LinearMap(GF(5), ((1, 2), (3, 4)))),
        (doc.product(), BilinearMap.zero(QQ, 2)),
        (OmegaSet(("a", "b")), OmegaSet(("b", "a"))),
        (doc.families["dot"], BilinearFamily("star", doc.families["dot"].maps)),
        (OperatorFamily({"a": id2}, {"a": 0}), OperatorFamily({"a": id2}, {"a": 1})),
        (doc, other),
        (flip, Violation("hom-assoc", ("a",), (0, 1, 1), (1, 0), (0, 2))),
        (CheckReport("fail", (flip,)), CheckReport("pass")),
        (SearchSpec(doc, "endomorphism"), SearchSpec(doc, "endomorphism", limit=3)),
        (SearchResult((doc,), False), SearchResult((doc,), True)),
        (CoefficientFamily({"a": 1}), CoefficientFamily({"a": 2})),
    ]


PAIRS = _pairs()


def _fields(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def _holds_a_dict(v):
    if type(v) in FIELDS:
        v = _fields(v)
    return isinstance(v, dict) or isinstance(v, tuple) and any(map(_holds_a_dict, v))


def test_every_exported_value_class_is_covered():
    assert {type(x) for x, _ in PAIRS} == set(FIELDS)
    assert all(type(y) is type(x) for x, y in PAIRS)


@pytest.mark.parametrize("x, y", PAIRS, ids=lambda x: type(x).__name__)
def test_equality_is_by_class_and_fields(x, y):
    cls = type(x)
    assert x == x and x == cls(*_fields(x))
    assert x == cls(**dict(zip(FIELDS[cls], _fields(x))))
    assert x != y and not x == y
    assert x != _fields(x) and x.__eq__(_fields(x)) is NotImplemented
    assert x != object() and x != next(a for a, _ in PAIRS if type(a) is not cls)


@pytest.mark.parametrize("x, y", PAIRS, ids=lambda x: type(x).__name__)
def test_hash_is_the_hash_of_the_fields(x, y):
    assert (type(x) in HASHABLE) != _holds_a_dict(x)
    if type(x) in HASHABLE:
        assert hash(x) == hash(_fields(x)) == hash(type(x)(*_fields(x)))
        assert len({x, y, type(x)(*_fields(x))}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)


@pytest.mark.parametrize("x, y", PAIRS, ids=lambda x: type(x).__name__)
def test_repr_names_the_class_and_each_field(x, y):
    parts = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[type(x)], _fields(x)))
    assert repr(x) == f"{type(x).__name__}({parts})"


def test_repr_is_pinned():
    assert repr(Field(kind="prime-field", p=5)) == "Field(kind='prime-field', p=5)"
    assert repr(LinearMap.from_rows(GF(3), [[1, 2], [0, 1]])) == (
        "LinearMap(field=Field(kind='prime-field', p=3), rows=((1, 2), (0, 1)))")


@pytest.mark.parametrize("x, y", PAIRS, ids=lambda x: type(x).__name__)
def test_fields_refuse_assignment_and_deletion(x, y):
    before = _fields(x)
    for name in FIELDS[type(x)] + ("extra",):
        with pytest.raises(AttributeError) as raised:
            setattr(x, name, None)
        assert str(raised.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError) as raised:
            delattr(x, name)
        assert str(raised.value) == f"cannot delete field {name!r}"
    assert _fields(x) == before
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x, y", PAIRS, ids=lambda x: type(x).__name__)
def test_copy_and_pickle_return_an_equal_object(x, y):
    for made in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(made) is type(x) and made == x and made != y
