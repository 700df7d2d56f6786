"""Every library entry point refuses an argument of the wrong type with a
HalgError: a ParamError, or a ShapeError naming the path of a doc part.
A matrix or tensor is refused at the path of its first bad level or entry.
None of these calls may end in a raw AttributeError, IndexError or
TypeError."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halg import (GF, PLAIN_ASSOC_MATCHING_RB, QQ, AlgebraDoc, BilinearFamily,
                  BilinearMap, HalgError, LinearMap, OperatorFamily,
                  ParamError, SearchSpec, ShapeError, UnknownFixtureError,
                  Violation, catalog, centroid_twist, check_morphism,
                  check_side_conditions, check_structure, collapse_family,
                  commutator, dendriform_twist, enumerate_docs, make_doc,
                  parse_doc, postcompose, precompose_left, precompose_right,
                  rb_to_dendriform, replay_violation, serialize_doc,
                  structure_ok, tensor_combine, tensor_transpose,
                  validate_doc, verify_diagram, yau_twist)
from halg.structures import MATCHING_HOM_ASSOC

ID2 = [[1, 0], [0, 1]]


def _hom_assoc(families, twist=LinearMap.identity(QQ, 2)):
    return make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, families, twist=twist)


def _plain(field, product, op, twist=None, omega=("a",)):
    return make_doc(field, 2, omega, PLAIN_ASSOC_MATCHING_RB, {"dot": product},
                    operators=OperatorFamily({"a": op}, {"a": 0}), twist=twist)


def _cases():
    rb = catalog("N2-Pnil-w0")
    dend = rb_to_dendriform(rb)
    fam = catalog("N2")
    zero = {"dot": {"a": BilinearMap.zero(QQ, 2)}}
    yield "side-condition candidate", ParamError, None, \
        lambda: check_side_conditions(rb, ["commutes"], candidate=ID2)
    yield "morphism map", ParamError, None, lambda: check_morphism(ID2, rb, rb)
    for bad in (ID2, "x"):
        kind = type(bad).__name__
        yield f"yau_twist {kind}", ParamError, None, lambda bad=bad: yau_twist(rb, bad)
        yield f"centroid_twist {kind}", ParamError, None, \
            lambda bad=bad: centroid_twist(rb, bad)
        yield f"dendriform_twist {kind}", ParamError, None, \
            lambda bad=bad: dendriform_twist(dend, bad)
    for bad in ([1], None):
        yield f"collapse_family {bad!r}", ParamError, None, \
            lambda bad=bad: collapse_family(fam, bad)
    yield "parse_doc int", ParamError, None, lambda: parse_doc(5)
    yield "make_doc families None", ShapeError, "families", lambda: _hom_assoc(None)
    yield "make_doc family list", ShapeError, "families.dot", \
        lambda: _hom_assoc({"dot": [1]})
    yield "make_doc family map", ShapeError, "families.dot.a", \
        lambda: _hom_assoc({"dot": {"a": BilinearMap(QQ, 5)}})
    yield "make_doc twist", ShapeError, "twist", \
        lambda: _hom_assoc(zero, twist=LinearMap(QQ, 5))
    doc = _hom_assoc(zero)
    yield "validate_doc twist", ShapeError, "twist", \
        lambda: validate_doc(dataclasses.replace(doc, twist=LinearMap(QQ, 5)))
    yield "validate_doc family map", ShapeError, "families.dot.a", \
        lambda: validate_doc(dataclasses.replace(
            doc, families={"dot": dataclasses.replace(
                doc.families["dot"], maps={"a": BilinearMap(QQ, 5)})}))
    yield "search base", ParamError, None, \
        lambda: enumerate_docs(SearchSpec("x", "rb-family"))
    yield "search weights None", ParamError, None, \
        lambda: enumerate_docs(SearchSpec(catalog("Z2-F2"), "rb-family",
                                          omega_size=1, weights=None))
    yield "replay witness", ParamError, None, lambda: replay_violation(rb, "x")
    # a matrix or tensor of the wrong shape or with an entry that is not
    # canonical, and a container that is not a dict, wherever one is read
    two_by_three = LinearMap(QQ, ((1, 0, 0), (0, 1, 0)))
    ragged = LinearMap(QQ, ((1, 0), (0,)))
    floats = LinearMap(QQ, ((1.0, 0), (0, 1.0)))
    zero2, id2 = BilinearMap.zero(QQ, 2), LinearMap.identity(QQ, 2)
    yield "invertible 2x3 candidate", ShapeError, "candidate[0]", \
        lambda: check_side_conditions(rb, ["invertible"], candidate=two_by_three)
    yield "float candidate", ShapeError, "candidate[0][0]", \
        lambda: check_side_conditions(rb, ["endomorphism"], candidate=floats)
    f2 = GF(2)
    yield "1/2 candidate over F_2", ShapeError, "candidate[0][0]", \
        lambda: check_side_conditions(catalog("N2-Pnil-w0-F2"), ["endomorphism"],
                                      candidate=LinearMap(f2, ((Fraction(1, 2), 0),
                                                               (0, 1))))
    yield "ragged candidate", ShapeError, "candidate[1]", \
        lambda: check_side_conditions(rb, ["endomorphism"], candidate=ragged)
    yield "ragged morphism", ShapeError, "morphism[1]", \
        lambda: check_morphism(ragged, rb, rb)
    yield "ragged dendriform_twist", ShapeError, "morphism[1]", \
        lambda: dendriform_twist(dend, ragged)
    yield "centroid_twist 2x3", ShapeError, "candidate[0]", \
        lambda: centroid_twist(rb, two_by_three)
    yield "yau_twist float", ShapeError, "candidate[0][0]", \
        lambda: yau_twist(rb, floats)
    # the tensor operations read maps unchecked; over Q the frame's scaling
    # refuses an entry that is not an int or a Fraction
    half_float = BilinearMap(QQ, (((0.5, 0), (0, 0)), ((0, 0), (0, 0))))
    yield "postcompose float tensor", ShapeError, "map", \
        lambda: postcompose(half_float, id2)
    yield "precompose_left float map", ShapeError, "map", \
        lambda: precompose_left(zero2, floats)
    yield "tensor_transpose float tensor", ShapeError, "map", \
        lambda: tensor_transpose(half_float)
    yield "make_doc twist (5, 6)", ShapeError, "twist[0]", \
        lambda: _hom_assoc(zero, twist=LinearMap(QQ, (5, 6)))
    yield "make_doc operator (5, 6)", ShapeError, "operators.ops.a[0]", \
        lambda: _plain(QQ, zero2, LinearMap(QQ, (5, 6)))
    yield "make_doc operator 5", ShapeError, "operators.ops.a", \
        lambda: _plain(QQ, zero2, LinearMap(QQ, 5))
    yield "make_doc product (5, 6)", ShapeError, "families.dot.a[0]", \
        lambda: _hom_assoc({"dot": {"a": BilinearMap(QQ, (5, 6))}})
    yield "OperatorFamily ops 5", ShapeError, "operators.ops", \
        lambda: make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": zero2},
                         operators=OperatorFamily(5, 6))
    yield "OperatorFamily weights 6", ShapeError, "operators.weights", \
        lambda: make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": zero2},
                         operators=OperatorFamily({"a": id2}, 6))
    yield "BilinearFamily maps 5", ShapeError, "families.dot", \
        lambda: _hom_assoc({"dot": BilinearFamily("dot", 5)})
    yield "make_doc omega 5", ShapeError, "omega", \
        lambda: _plain(QQ, zero2, id2, omega=5)
    d = catalog("N2-F3")
    yield "validate_doc omega tuple", ShapeError, "omega", \
        lambda: validate_doc(AlgebraDoc(d.field, d.dim, ("a",), d.kind, d.families,
                                        None, d.twist))
    # a kind that is not hashable, a field that is not a Field, and a doc,
    # spec or toggle table that is not one, wherever a call reads one
    yield "make_doc kind list", ShapeError, "kind", \
        lambda: make_doc(QQ, 2, ("a",), ["x"], zero, twist=id2)
    yield "catalog list", UnknownFixtureError, None, lambda: catalog(["x"])
    yield "make_doc field 5", ShapeError, "field", \
        lambda: make_doc(5, 2, ("a",), MATCHING_HOM_ASSOC, zero, twist=id2)
    yield "from_rows field 5", ParamError, None, lambda: LinearMap.from_rows(5, [[1]])
    yield "from_nested field 5", ParamError, None, \
        lambda: BilinearMap.from_nested(5, [[[1]]])
    witness = Violation("hom-assoc", (), (0, 0, 0), (0, 0), (0, 0))
    for name, call in (
            ("check_structure 5", lambda: check_structure(5)),
            ("structure_ok str", lambda: structure_ok("x")),
            ("replay_violation 5", lambda: replay_violation(5, witness)),
            ("check_side_conditions 5", lambda: check_side_conditions(5, [])),
            ("check_morphism src 5", lambda: check_morphism(id2, 5, rb)),
            ("yau_twist 5", lambda: yau_twist(5, id2)),
            ("commutator None", lambda: commutator(None)),
            ("collapse_family 5", lambda: collapse_family(5, {})),
            ("verify_diagram 5", lambda: verify_diagram(5)),
            ("serialize_doc 5", lambda: serialize_doc(5)),
            ("enumerate_docs 5", lambda: enumerate_docs(5)),
            ("axiom_toggles 5", lambda: check_structure(rb, axiom_toggles=5)),
            # a field, tensor or map that is not one, given to a constructor
            # or a tensor operation
            ("LinearMap.identity field 5", lambda: LinearMap.identity(5, 2)),
            ("BilinearMap.zero field 5", lambda: BilinearMap.zero(5, 2)),
            ("postcompose 5", lambda: postcompose(5, id2)),
            ("postcompose map 5", lambda: postcompose(zero2, 5)),
            ("precompose_left 5", lambda: precompose_left(5, id2)),
            ("precompose_right 5", lambda: precompose_right(5, id2)),
            ("tensor_transpose 5", lambda: tensor_transpose(5)),
            ("tensor_combine term 5", lambda: tensor_combine(QQ, [(1, 5)]))):
        yield name, ParamError, None, call


_CASES = list(_cases())


@pytest.mark.parametrize("name, error, path, call", _CASES,
                         ids=[case[0] for case in _CASES])
def test_a_wrong_typed_argument_raises_a_halg_error(name, error, path, call):
    with pytest.raises(HalgError) as exc:
        call()
    assert isinstance(exc.value, error)
    if path is not None:
        assert exc.value.path == path


def test_a_plain_kind_drops_an_identity_twist_with_list_rows():
    zero = BilinearMap.zero(QQ, 2)
    doc = _plain(QQ, zero, LinearMap.identity(QQ, 2),
                 twist=LinearMap(QQ, [[1, 0], [0, 1]]))
    assert doc.twist is None


_LEAF = st.one_of(st.integers(-2, 4), st.floats(allow_nan=False), st.booleans(),
                  st.fractions(max_denominator=4), st.text(max_size=2), st.none())


def _arrays(leaf):
    return st.one_of(st.lists(leaf, max_size=3), st.lists(leaf, max_size=3).map(tuple))


def _pairs(item):
    return st.one_of(st.lists(item, min_size=2, max_size=2), st.tuples(item, item))


# mostly a 0 or a 1, canonical in every field
_ENTRY = st.one_of(*[st.integers(0, 1)] * 4, _LEAF)

# junk nested at any depth, short arrays of junk, and 2 x 2 (x 2) arrays of
# mostly canonical entries, so that maps are accepted as well as refused
_JUNK = st.one_of(st.recursive(_LEAF, _arrays, max_leaves=20),
                  _arrays(_arrays(_LEAF)), _pairs(_pairs(_ENTRY)),
                  _pairs(_pairs(_pairs(_ENTRY))))


def _exact(rows):
    return [[(type(v), v) for v in row] for row in rows]


def _accepted_or_halg_error(call):
    try:
        return call()
    except HalgError:
        return None


@settings(max_examples=300, deadline=None)
@given(fixture=st.sampled_from(["N2-Pnil-w0", "N2-Pnil-w0-F2", "N2-Pnil-w0-F3"]),
       junk=_JUNK)
def test_junk_maps_are_accepted_canonical_or_refused(fixture, junk):
    """Junk as a map's data is accepted or refused with a HalgError at every
    entry point; an accepted doc serializes to bytes that parse again, and
    an accepted candidate holds exactly the canonical scalars of its rows."""
    rb = catalog(fixture)
    field = rb.field
    linear, bilinear = LinearMap(field, junk), BilinearMap(field, junk)
    ops = rb.operators.ops["a"]
    for call in (lambda: _plain(field, rb.product(), linear),
                 lambda: _plain(field, rb.product(), ops, twist=linear),
                 lambda: _plain(field, bilinear, ops)):
        doc = _accepted_or_halg_error(call)
        if doc is not None:
            line = serialize_doc(doc)
            assert serialize_doc(parse_doc(line)) == line
    report = _accepted_or_halg_error(
        lambda: check_side_conditions(rb, ["endomorphism", "invertible"],
                                      candidate=linear))
    if report is not None:
        assert _exact(LinearMap.from_rows(field, linear.rows).rows) == \
            _exact(linear.rows)
    _accepted_or_halg_error(lambda: check_morphism(linear, rb, rb))
    _accepted_or_halg_error(lambda: LinearMap.from_rows(field, junk))
    _accepted_or_halg_error(lambda: BilinearMap.from_nested(field, junk))
