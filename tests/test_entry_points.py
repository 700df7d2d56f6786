"""Every library entry point refuses an argument of the wrong type with a
HalgError: a ParamError, or a ShapeError naming the path of a doc part.
None of these calls may end in a raw AttributeError or TypeError."""

import dataclasses

import pytest

from halg import (QQ, BilinearMap, HalgError, LinearMap, ParamError,
                  SearchSpec, ShapeError, catalog, centroid_twist,
                  check_morphism, check_side_conditions, collapse_family,
                  dendriform_twist, enumerate_docs, make_doc, parse_doc,
                  rb_to_dendriform, replay_violation, validate_doc, yau_twist)
from halg.structures import MATCHING_HOM_ASSOC

ID2 = [[1, 0], [0, 1]]


def _hom_assoc(families, twist=LinearMap.identity(QQ, 2)):
    return make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, families, twist=twist)


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


_CASES = list(_cases())


@pytest.mark.parametrize("name, error, path, call", _CASES,
                         ids=[case[0] for case in _CASES])
def test_a_wrong_typed_argument_raises_a_halg_error(name, error, path, call):
    with pytest.raises(HalgError) as exc:
        call()
    assert isinstance(exc.value, error)
    if path is not None:
        assert exc.value.path == path
