"""Every library entry point refuses an argument of the wrong type with a
HalgError: a ParamError, or a ShapeError naming the path of a doc part.
A matrix or tensor is refused at the path of its first bad level or entry.
None of these calls may end in a raw AttributeError, IndexError or
TypeError."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halg import (DENDRIFORM_AXIOM3_TWIST, GF, PLAIN_ASSOC_MATCHING_RB, QQ,
                  AlgebraDoc, BilinearFamily,
                  BilinearMap, DimensionMismatch, FieldMismatch, HalgError,
                  LinearMap, OperatorFamily, ParamError, PreconditionFailed,
                  SearchSpec, ShapeError, UnknownFixtureError,
                  Violation, apply_map, bilinear_apply, catalog,
                  centroid_twist, check_morphism,
                  check_side_conditions, check_structure, collapse_family,
                  commutator, dendriform_twist, derived_algebra,
                  enumerate_docs, kernel_vector, make_doc, map_compose,
                  map_invert, map_power,
                  parse_doc, postcompose, precompose_left, precompose_right,
                  rb_to_dendriform, rb_to_prelie, replay_violation,
                  seeded_sample,
                  serialize_doc, structure_ok, tensor_combine,
                  tensor_transpose, untwist, validate_doc, verify_diagram,
                  yau_twist)
from halg.axioms import first_difference
from halg.search import sample_hits
from halg.structures import (HOM_ASSOC_MATCHING_RB, MATCHING_HOM_ASSOC,
                             MATCHING_HOM_DENDRIFORM, PLAIN_LIE_MATCHING_RB,
                             CheckReport, OmegaSet)

ID2 = [[1, 0], [0, 1]]
# x < y = x > y = the diagonal product e_i e_i = e_i: no matching dendriform
_X = BilinearMap.from_nested(QQ, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def _hom_assoc(families, twist=LinearMap.identity(QQ, 2)):
    return make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, families, twist=twist)


def _plain(field, product, op, twist=None, omega=("a",)):
    return make_doc(field, 2, omega, PLAIN_ASSOC_MATCHING_RB, {"dot": product},
                    operators=OperatorFamily({"a": op}, {"a": 0}), twist=twist)


def _rebuilt(obj, **changes):
    """obj's class called on obj's fields, with changes in place of some."""
    return type(obj)(**{name: getattr(obj, name) for name in type(obj).__slots__}
                     | changes)


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
        lambda: validate_doc(_rebuilt(doc, twist=LinearMap(QQ, 5)))
    yield "validate_doc family map", ShapeError, "families.dot.a", \
        lambda: validate_doc(_rebuilt(
            doc, families={"dot": _rebuilt(
                doc.families["dot"], maps={"a": BilinearMap(QQ, 5)})}))
    yield "search base", ParamError, None, \
        lambda: enumerate_docs(SearchSpec("x", "rb-family"))
    yield "search weights None", ParamError, None, \
        lambda: enumerate_docs(SearchSpec(catalog("Z2-F2"), "rb-family",
                                          omega_size=1, weights=None))
    # a seed that is not an int: None would sample differently on every call
    for bad in ([1], None, True, 1.5, "x"):
        for sample in (seeded_sample, sample_hits):
            yield f"{sample.__name__} seed {bad!r}", ParamError, None, \
                lambda s=sample, b=bad: s(SearchSpec(catalog("Z2-F2"), "rb-family",
                                                     omega_size=1, weights=(0,)), b, 2)
    yield "replay witness", ParamError, None, lambda: replay_violation(rb, "x")
    rb3 = catalog("N2-Pnil-w0-F3")
    yield "replay witness labels [] and []", ParamError, None, \
        lambda: replay_violation(rb3, Violation("matching-rb", ([], []), (0, 0), (), ()))
    yield "replay witness basis None", ParamError, None, \
        lambda: replay_violation(rb3, Violation("matching-rb", ("a", "a"), None, (), ()))
    yield "replay witness basis of bools", ParamError, None, \
        lambda: replay_violation(rb3, Violation("matching-rb", ("a", "a"), (True, False),
                                                (), ()))
    # a toggle is True or False: any other value, falsy or not, is refused
    dend_witness = Violation("dendriform-3", ("a", "a"), (0, 0, 0), (0, 0), (0, 0))
    for bad in ("off", None, 0, []):
        toggles = {DENDRIFORM_AXIOM3_TWIST: bad}
        yield f"check_structure toggle {bad!r}", ParamError, None, \
            lambda t=toggles: check_structure(dend, axiom_toggles=t)
        yield f"structure_ok toggle {bad!r}", ParamError, None, \
            lambda t=toggles: structure_ok(dend, axiom_toggles=t)
        yield f"replay_violation toggle {bad!r}", ParamError, None, \
            lambda t=toggles: replay_violation(dend, dend_witness, axiom_toggles=t)
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
    # a construction's map is refused only after its input's own verdict:
    # on an input that fails its check, every malformed map is the input's
    # PreconditionFailed; on a passing input each map keeps its own error
    failing = {"yau_twist": _plain(QQ, rb.product(), id2),
               "centroid_twist": _plain(QQ, rb.product(), id2),
               "dendriform_twist": make_doc(QQ, 2, ("a",), MATCHING_HOM_DENDRIFORM, {
                   "left": {"a": _X}, "right": {"a": _X}}, twist=id2)}
    passing = {"yau_twist": rb, "centroid_twist": rb, "dendriform_twist": dend}
    construct = {"yau_twist": yau_twist, "centroid_twist": centroid_twist,
                 "dendriform_twist": dendriform_twist}
    maps = {"list": (ID2, ParamError, None), "str": ("x", ParamError, None),
            "3x3": (LinearMap.identity(QQ, 3), DimensionMismatch, None),
            "over F_3": (LinearMap.identity(GF(3), 2), FieldMismatch, None),
            "float": (floats, ShapeError, "[0][0]"),
            "2x3": (two_by_three, ShapeError, "[0]")}
    for name, fn in construct.items():
        where = "morphism" if name == "dendriform_twist" else "candidate"
        for label, (bad, error, path) in maps.items():
            yield f"{name} {label} on a failing input", PreconditionFailed, None, \
                lambda fn=fn, doc=failing[name], bad=bad: fn(doc, bad)
            yield f"{name} {label} on a passing input", error, \
                path and where + path, lambda fn=fn, doc=passing[name], bad=bad: fn(doc, bad)
    # untwist reads the inverse of its twist before the input's verdict, and
    # a singular one is refused only after it; derived_algebra refuses
    # variant 2 on a Lie doc only after the input's verdict too
    aff2 = catalog("aff2")
    lie = make_doc(QQ, 2, ("a",), PLAIN_LIE_MATCHING_RB,
                   {"bracket": aff2.families["bracket"].maps[aff2.labels[0]]},
                   operators=OperatorFamily({"a": id2}, {"a": 0}))
    singular = make_doc(QQ, 2, ("a",), HOM_ASSOC_MATCHING_RB, {"dot": rb.product()},
                        operators=OperatorFamily({"a": id2}, {"a": 0}),
                        twist=LinearMap(QQ, ((0, 0), (0, 0))))
    yield "untwist of a singular twist on a failing input", PreconditionFailed, None, \
        lambda: untwist(singular)
    yield "derived_algebra variant 2 on a failing Lie input", PreconditionFailed, None, \
        lambda: derived_algebra(lie, 1, 2)
    # a variant is the int 1 or 2: a bool or a float equal to one is refused
    for bad in (True, 1.0, 2.0):
        yield f"derived_algebra variant {bad!r}", ParamError, None, \
            lambda bad=bad: derived_algebra(rb, 1, bad)
        yield f"centroid_twist variant {bad!r}", ParamError, None, \
            lambda bad=bad: centroid_twist(rb, id2, bad)
    # the tensor operations check their tensor and map by the one rule for
    # map arguments, over Q and over F_p alike
    half_float = BilinearMap(QQ, (((0.5, 0), (0, 0)), ((0, 0), (0, 0))))
    yield "postcompose float tensor", ShapeError, "m[0][0][0]", \
        lambda: postcompose(half_float, id2)
    yield "precompose_left float map", ShapeError, "f[0][0]", \
        lambda: precompose_left(zero2, floats)
    yield "tensor_transpose float tensor", ShapeError, "m[0][0][0]", \
        lambda: tensor_transpose(half_float)
    f3 = GF(3)
    id3 = LinearMap.identity(f3, 2)
    half_float3 = BilinearMap(f3, (((0.5, 0), (0, 0)), ((0, 0), (0, 0))))
    five3 = BilinearMap(f3, (((0, 0), (0, 5)), ((0, 0), (0, 0))))
    yield "postcompose float tensor over F_3", ShapeError, "m[0][0][0]", \
        lambda: postcompose(half_float3, id3)
    yield "tensor_transpose float tensor over F_3", ShapeError, "m[0][0][0]", \
        lambda: tensor_transpose(half_float3)
    yield "precompose_right entry 5 over F_3", ShapeError, "m[0][1][1]", \
        lambda: precompose_right(five3, id3)
    yield "precompose_left map entry 3 over F_3", ShapeError, "f[1][0]", \
        lambda: precompose_left(BilinearMap.zero(f3, 2),
                                LinearMap(f3, ((1, 0), (3, 1))))
    yield "postcompose map float over F_3", ShapeError, "f[0][1]", \
        lambda: postcompose(BilinearMap.zero(f3, 2), LinearMap(f3, ((1, 0.0), (0, 1))))
    yield "postcompose tensor field 5", ParamError, None, \
        lambda: postcompose(BilinearMap(5, (((0,),),)), LinearMap.identity(QQ, 1))
    yield "postcompose non-array tensor", ShapeError, "m", \
        lambda: postcompose(BilinearMap(QQ, 5), LinearMap.identity(QQ, 2))
    yield "tensor_transpose non-array tensor", ShapeError, "m", \
        lambda: tensor_transpose(BilinearMap(QQ, 5))
    yield "precompose_left non-array tensor over F_3", ShapeError, "m", \
        lambda: precompose_left(BilinearMap(f3, None), id3)
    # a map over another field or of another dim than the doc or tensor it
    # is read with, and two docs that a law between them cannot pair
    yield "candidate over F_3", FieldMismatch, None, \
        lambda: check_side_conditions(rb, ["endomorphism"], candidate=id3)
    yield "morphism map over F_3", FieldMismatch, None, lambda: check_morphism(id3, rb, rb)
    yield "postcompose 3x3 map", DimensionMismatch, None, \
        lambda: postcompose(zero2, LinearMap.identity(QQ, 3))
    yield "morphism between fields", FieldMismatch, None, \
        lambda: check_morphism(id2, rb, catalog("N2-Pnil-w0-F3"))
    zero3 = BilinearMap.zero(QQ, 3)
    rb3 = make_doc(QQ, 3, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": zero3},
                   operators=OperatorFamily({"a": LinearMap.identity(QQ, 3)}, {"a": 0}))
    yield "comparison between dims", DimensionMismatch, None, \
        lambda: first_difference(rb, rb3)
    # reports, docs and families that break an invariant their types state
    yield "report verdict", ShapeError, "report", lambda: CheckReport("maybe")
    yield "report verdict against its violations", ShapeError, "report", \
        lambda: CheckReport("pass", (Violation("hom-assoc", (), (0, 0, 0), (1, 0), (0, 0)),))
    yield "product of a family kind", ShapeError, "kind", lambda: fam.product()
    yield "validate_doc role tag", ShapeError, "families.dot", \
        lambda: validate_doc(_rebuilt(doc, families={
            "dot": BilinearFamily("star", doc.families["dot"].maps)}))
    rb_ab = make_doc(QQ, 2, ("a", "b"), PLAIN_ASSOC_MATCHING_RB, {"dot": zero2},
                     operators=OperatorFamily({"a": id2, "b": id2}, {"a": 0, "b": 0}))
    yield "validate_doc rb labels disagree", ShapeError, "families.dot.b", \
        lambda: validate_doc(_rebuilt(rb_ab, families={
            "dot": BilinearFamily("dot", {"a": zero2, "b": rb.product()})}))
    yield "validate_doc operators 5", ShapeError, "operators", \
        lambda: validate_doc(_rebuilt(rb, operators=5))
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
            ("rb_to_prelie 5", lambda: rb_to_prelie(5)),
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
            ("tensor_combine term 5", lambda: tensor_combine(QQ, [(1, 5)])),
            ("tensor_combine bare tensor", lambda: tensor_combine(QQ, [zero2])),
            # a map, tensor, power or dim that is not one, given to an
            # exported linalg helper
            ("map_power 1.5", lambda: map_power(id2, 1.5)),
            ("map_power '2'", lambda: map_power(id2, "2")),
            ("map_power True", lambda: map_power(id2, True)),
            ("LinearMap.identity dim 'x'", lambda: LinearMap.identity(QQ, "x")),
            ("BilinearMap.zero dim 2.0", lambda: BilinearMap.zero(QQ, 2.0)),
            ("map_power str", lambda: map_power("x", 2)),
            ("map_compose str", lambda: map_compose(id2, "x")),
            ("map_invert str", lambda: map_invert("x")),
            ("kernel_vector str", lambda: kernel_vector("x")),
            ("apply_map str", lambda: apply_map("x", (1, 0))),
            ("bilinear_apply str", lambda: bilinear_apply("m", (1, 0), (0, 1)))):
        yield name, ParamError, None, call
    # a coefficient of tensor_combine is a canonical scalar of its field
    for bad in ("x", 0.5):
        yield f"tensor_combine coefficient {bad!r}", ShapeError, "terms[0]", \
            lambda bad=bad: tensor_combine(QQ, [(bad, zero2)])
    # a dim below 1 makes no map, and a map or tensor of dim 0 is refused
    # wherever it is read on its own
    empty, empty_m = LinearMap(QQ, ()), BilinearMap(QQ, ())
    for name, call in (("LinearMap.identity dim 0", lambda: LinearMap.identity(QQ, 0)),
                       ("LinearMap.identity dim -1", lambda: LinearMap.identity(QQ, -1)),
                       ("BilinearMap.zero dim 0", lambda: BilinearMap.zero(QQ, 0)),
                       ("BilinearMap.zero dim -2", lambda: BilinearMap.zero(QQ, -2)),
                       ("map_invert dim 0", lambda: map_invert(empty)),
                       ("map_power dim 0", lambda: map_power(empty, 2)),
                       ("map_compose dim 0", lambda: map_compose(empty, empty)),
                       ("kernel_vector dim 0", lambda: kernel_vector(empty)),
                       ("apply_map dim 0", lambda: apply_map(empty, ())),
                       ("bilinear_apply dim 0", lambda: bilinear_apply(empty_m, (), ())),
                       ("tensor_combine dim 0", lambda: tensor_combine(QQ, [(1, empty_m)])),
                       ("tensor_transpose dim 0", lambda: tensor_transpose(empty_m)),
                       ("postcompose dim 0", lambda: postcompose(empty_m, empty))):
        yield name, ParamError, None, call
    # a vector is a list or tuple of scalars of the map's field, as long as
    # the map's dim
    for name, path, call in (
            ("apply_map vector 5", "x", lambda: apply_map(id2, 5)),
            ("apply_map entry 'a'", "x[0]", lambda: apply_map(id2, ("a", 1))),
            ("apply_map entry 1.5", "x[0]", lambda: apply_map(id2, (1.5, 0))),
            ("apply_map entry True", "x[1]", lambda: apply_map(id2, [0, True])),
            ("bilinear_apply x 5", "x", lambda: bilinear_apply(zero2, 5, (1, 0))),
            ("bilinear_apply y 'y'", "y", lambda: bilinear_apply(zero2, (1, 0), "y")),
            ("bilinear_apply y entry 0.5", "y[1]",
             lambda: bilinear_apply(zero2, (1, 0), (0, 0.5)))):
        yield name, ShapeError, path, call
    for name, call in (("apply_map vector ()", lambda: apply_map(id2, ())),
                       ("apply_map vector of 3", lambda: apply_map(id2, (1, 0, 0))),
                       ("bilinear_apply y ()", lambda: bilinear_apply(zero2, (1, 0), []))):
        yield name, DimensionMismatch, None, call
    # the exported linalg helpers hold their map and tensor arguments to the
    # one map rule at their own field and dim
    half = LinearMap(QQ, ((0.5, 0), (0, 1)))
    uneven = LinearMap(QQ, ((1, 2), (3,)))
    for name, path, call in (
            ("map_invert ragged", "f[1]", lambda: map_invert(uneven)),
            ("map_compose ragged", "f[1]", lambda: map_compose(uneven, id2)),
            ("map_compose ragged g", "g[1]", lambda: map_compose(id2, uneven)),
            ("map_power ragged", "f[1]", lambda: map_power(uneven, 2)),
            ("kernel_vector ragged", "f[1]", lambda: kernel_vector(uneven)),
            ("apply_map ragged", "f[1]", lambda: apply_map(uneven, (1, 0))),
            ("apply_map float map", "f[0][0]", lambda: apply_map(half, (1, 1))),
            ("map_invert str rows", "f", lambda: map_invert(LinearMap(QQ, "ab"))),
            ("bilinear_apply non-array tensor", "m",
             lambda: bilinear_apply(BilinearMap(QQ, 5), (1, 0), (0, 1))),
            ("bilinear_apply float tensor", "m[0][0][0]",
             lambda: bilinear_apply(half_float, (1, 0), (1, 0))),
            ("tensor_combine float tensor", "terms[0][0][0][0]",
             lambda: tensor_combine(QQ, [(1, half_float)])),
            ("tensor_combine non-array tensor", "terms[0]",
             lambda: tensor_combine(QQ, [(1, BilinearMap(QQ, 5))]))):
        yield name, ShapeError, path, call
    yield "map_invert field 5", ParamError, None, \
        lambda: map_invert(LinearMap(5, ((1,),)))
    # a doc built directly is validated as make_doc's are
    ragged_tensor = BilinearMap(QQ, (((0, 0), (0,)), ((0, 0), (0, 0))))
    yield "AlgebraDoc ragged tensor", ShapeError, "families.dot.a[0][1]", \
        lambda: AlgebraDoc(QQ, 2, OmegaSet(("a",)), MATCHING_HOM_ASSOC,
                           {"dot": BilinearFamily("dot", {"a": ragged_tensor})}, None, id2)
    yield "AlgebraDoc without families", ShapeError, "families", \
        lambda: AlgebraDoc(QQ, 2, OmegaSet(("a",)), MATCHING_HOM_ASSOC, {}, None, id2)
    yield "AlgebraDoc families 5", ShapeError, "families", \
        lambda: AlgebraDoc(QQ, 2, OmegaSet(("a",)), MATCHING_HOM_ASSOC, 5, None, id2)
    yield "validate_doc 5", ParamError, None, lambda: validate_doc(5)


_CASES = list(_cases())


@pytest.mark.parametrize("name, error, path, call", _CASES,
                         ids=[case[0] for case in _CASES])
def test_a_wrong_typed_argument_raises_a_halg_error(name, error, path, call):
    with pytest.raises(HalgError) as exc:
        call()
    assert isinstance(exc.value, error)
    if path is not None:
        assert exc.value.path == path


def _refusals():
    """(name, path, message, call): a map of the wrong type or over another
    field than the doc's (linalg.check_map), and an operators object that
    lacks its weights (parse_doc)."""
    id2, zero = LinearMap.identity(QQ, 2), {"dot": {"a": BilinearMap.zero(QQ, 2)}}
    yield "family map a LinearMap", "families.dot.a", \
        "families.dot.a: expected a BilinearMap", lambda: _hom_assoc({"dot": {"a": id2}})
    yield "family map over F_3", "families.dot.a", \
        "families.dot.a: BilinearMap over the wrong field", \
        lambda: _hom_assoc({"dot": {"a": BilinearMap.zero(GF(3), 2)}})
    yield "twist a BilinearMap", "twist", "twist: expected a LinearMap", \
        lambda: _hom_assoc(zero, twist=BilinearMap.zero(QQ, 2))
    yield "operator over F_3", "operators.ops.a", \
        "operators.ops.a: LinearMap over the wrong field", \
        lambda: _plain(QQ, BilinearMap.zero(QQ, 2), LinearMap.identity(GF(3), 2))
    obj = json.loads(serialize_doc(catalog("N2-Pnil-w0")))
    del obj["operators"]["weights"]
    yield "operators without weights", "operators", \
        "operators: operators must be an object with ops and weights", \
        lambda: parse_doc(json.dumps(obj))


_REFUSALS = list(_refusals())


@pytest.mark.parametrize("name, path, message, call", _REFUSALS,
                         ids=[case[0] for case in _REFUSALS])
def test_a_map_or_operators_object_is_refused_with_its_message(name, path, message,
                                                               call):
    with pytest.raises(ShapeError) as exc:
        call()
    assert (exc.value.path, str(exc.value)) == (path, message)


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
    for call in (lambda: apply_map(linear, (1, 0)), lambda: map_compose(linear, ops),
                 lambda: map_compose(ops, linear), lambda: map_power(linear, 3),
                 lambda: map_invert(linear), lambda: kernel_vector(linear),
                 lambda: bilinear_apply(bilinear, (1, 0), (0, 1)),
                 lambda: tensor_combine(field, [(1, bilinear)])):
        _accepted_or_halg_error(call)
