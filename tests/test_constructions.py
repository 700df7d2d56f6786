"""Constructions: frozen output oracles, round trips, and hypothesis guards.

Oracle values were computed by hand from the defining formulas before the
tests were run; tensors are asserted entrywise, not just re-checked.
"""

import json
from fractions import Fraction

import pytest

from halg import (GF, QQ, BilinearMap, CoefficientFamily, LinearMap,
                  MissingCoefficientError, NonzeroWeightError, OperatorFamily,
                  ParamError, PowerBoundError, PreconditionFailed,
                  ShapeError, TheoremCheckError, catalog, centroid_twist, check_structure,
                  collapse_family, commutator, dendriform_sum,
                  dendriform_to_prelie, dendriform_twist, derived_algebra,
                  make_doc, parse_doc, prelie_commutator, rb_to_dendriform,
                  rb_to_prelie, rb_to_tridendriform, serialize_doc,
                  structure_ok, untwist, verify_diagram, yau_twist)
from halg.constructions import MAX_DERIVED_LEVEL, _checked_output
from halg.structures import (COMPATIBLE_HOM_ASSOC, COMPATIBLE_HOM_LIE,
                             HOM_ASSOC_MATCHING_RB, MATCHING_HOM_ASSOC,
                             MATCHING_HOM_DENDRIFORM, MATCHING_HOM_LIE,
                             MATCHING_HOM_LIE_RB, MATCHING_HOM_PRELIE,
                             MATCHING_HOM_TRIDENDRIFORM,
                             PLAIN_ASSOC_MATCHING_RB, PLAIN_LIE_MATCHING_RB,
                             TOTALLY_COMPATIBLE_HOM_ASSOC, swap_part)

N2 = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
UT = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]  # e11, e12 upper-triangular units


def plain_rb(tensor, op_rows, weight, field=QQ, kind=PLAIN_ASSOC_MATCHING_RB):
    role = "dot" if kind == PLAIN_ASSOC_MATCHING_RB else "bracket"
    return make_doc(field, 2, ("a",), kind,
                    {role: BilinearMap.from_nested(field, tensor)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, op_rows)},
                        weights={"a": weight}))


def n2_p0():
    return plain_rb(N2, [[0, 0], [0, 0]], 0)


DIAG12 = [[1, 0], [0, 2]]


def test_yau_twist_postcomposes_and_records_the_twist():
    hom = yau_twist(n2_p0(), LinearMap.from_rows(QQ, DIAG12))
    assert hom.kind == HOM_ASSOC_MATCHING_RB
    assert hom.twist.rows == ((1, 0), (0, 2))
    assert hom.product().c == (((1, 0), (0, 2)), ((0, 2), (0, 0)))
    assert hom.operators == n2_p0().operators


def test_yau_twist_rejects_non_endomorphism_with_report():
    swap = LinearMap.from_rows(QQ, [[0, 1], [1, 0]])
    with pytest.raises(PreconditionFailed) as exc:
        yau_twist(n2_p0(), swap)
    assert exc.value.report is not None and not exc.value.report.passed


def test_yau_twist_rejects_non_commuting_map():
    base = plain_rb(N2, [[0, 0], [1, 0]], 0)  # catalog N2-Pnil-w0 shape
    with pytest.raises(PreconditionFailed):
        yau_twist(base, LinearMap.from_rows(QQ, DIAG12))


def test_yau_twist_rejects_hom_kind_input():
    hom = yau_twist(n2_p0(), LinearMap.from_rows(QQ, DIAG12))
    with pytest.raises(PreconditionFailed):
        yau_twist(hom, LinearMap.identity(QQ, 2))


def test_untwist_inverts_yau_twist_bytewise():
    base = n2_p0()
    hom = yau_twist(base, LinearMap.from_rows(QQ, DIAG12))
    assert serialize_doc(untwist(hom)) == serialize_doc(base)


def test_untwist_requires_invertible_twist():
    crush = LinearMap.from_rows(QQ, [[1, 0], [0, 0]])  # N2 endomorphism
    hom = yau_twist(n2_p0(), crush)
    with pytest.raises(PreconditionFailed):
        untwist(hom)


def test_derived_algebra_stacks_twist_powers():
    hom = yau_twist(n2_p0(), LinearMap.from_rows(QQ, DIAG12))
    d1 = derived_algebra(hom, 2, variant=1)
    assert d1.product().c[0][1] == (0, 8) and d1.twist.rows == ((1, 0), (0, 8))
    d2 = derived_algebra(hom, 2, variant=2)
    assert d2.product().c[0][1] == (0, 16) and d2.twist.rows == ((1, 0), (0, 16))
    assert serialize_doc(derived_algebra(hom, 0)) == serialize_doc(hom)


def test_derived_algebra_parameter_guards():
    hom = yau_twist(n2_p0(), LinearMap.from_rows(QQ, DIAG12))
    with pytest.raises(ParamError):
        derived_algebra(hom, 1, variant=3)
    with pytest.raises(ParamError):
        derived_algebra(hom, -1)
    with pytest.raises(ParamError):
        derived_algebra(hom, True)
    with pytest.raises(PowerBoundError):
        derived_algebra(hom, MAX_DERIVED_LEVEL + 1)
    zero_lie = plain_rb([[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                        [[1, 0], [0, 1]], 0, kind=PLAIN_LIE_MATCHING_RB)
    with pytest.raises(ParamError):
        derived_algebra(zero_lie, 1, variant=2)


def test_centroid_twist_scales_once_or_twice():
    triple = LinearMap.from_rows(QQ, [[3, 0], [0, 3]])
    v1 = centroid_twist(n2_p0(), triple)
    assert v1.kind == HOM_ASSOC_MATCHING_RB
    assert v1.product().c == (((3, 0), (0, 3)), ((0, 3), (0, 0)))
    v2 = centroid_twist(n2_p0(), triple, variant=2)
    assert v2.product().c[0][0] == (9, 0)
    with pytest.raises(PreconditionFailed):
        centroid_twist(n2_p0(), LinearMap.from_rows(QQ, DIAG12))
    with pytest.raises(ParamError):
        centroid_twist(n2_p0(), triple, variant=0)


def ut_doc(kind=MATCHING_HOM_ASSOC):
    return make_doc(QQ, 2, ("a",), kind,
                    {"dot": {"a": BilinearMap.from_nested(QQ, UT)}},
                    twist=LinearMap.identity(QQ, 2))


UT_BRACKET = (((0, 0), (0, 1)), ((0, -1), (0, 0)))


def test_commutator_antisymmetrizes_each_label():
    out = commutator(ut_doc())
    assert out.kind == COMPATIBLE_HOM_LIE
    assert out.families["bracket"].maps["a"].c == UT_BRACKET
    tot = commutator(ut_doc(TOTALLY_COMPATIBLE_HOM_ASSOC))
    assert tot.kind == MATCHING_HOM_LIE
    assert tot.families["bracket"].maps["a"].c == UT_BRACKET


def test_commutator_carries_rb_operators_and_twist():
    hom = yau_twist(n2_p0(), LinearMap.from_rows(QQ, DIAG12))
    out = commutator(hom)
    assert out.kind == MATCHING_HOM_LIE_RB
    assert out.twist.rows == ((1, 0), (0, 2))
    assert out.operators == hom.operators
    # the dual-number product is commutative, so the bracket collapses
    assert out.families["bracket"].maps["a"].c == BilinearMap.zero(QQ, 2).c

    plain = plain_rb(UT, [[0, 0], [1, 0]], 0)
    pout = commutator(plain)
    assert pout.kind == PLAIN_LIE_MATCHING_RB and pout.twist is None
    assert pout.families["bracket"].maps["a"].c == UT_BRACKET


MIXED_WEIGHT_RB = {
    "format-version": "1", "kind": "plain-assoc-matching-rb",
    "field": {"kind": "prime-field", "p": 2}, "dim": 2, "omega": ["a", "b"],
    "families": {"dot": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]},
    "operators": {"ops": {"a": [[0, 0], [1, 0]], "b": [[1, 0], [0, 0]]},
                  "weights": {"a": 0, "b": 1}},
}


def test_commutator_rb_mixed_weight_guard():
    """Mixed nonzero weights genuinely break the induced Lie RB identity."""
    doc = parse_doc(json.dumps(MIXED_WEIGHT_RB).encode())
    assert structure_ok(doc)
    with pytest.raises(PreconditionFailed):
        commutator(doc)
    # the guard is not defensive: the naive output really fails its check
    field = GF(2)
    c = doc.product()
    naive_bracket = [[(0, 0), (0, 1)], [(0, 1), (0, 0)]]
    naive = make_doc(field, 2, ("a", "b"), PLAIN_LIE_MATCHING_RB,
                     {"bracket": BilinearMap.from_nested(field, naive_bracket)},
                     operators=doc.operators)
    report = check_structure(naive)
    assert not report.passed
    hits = [v for v in report.violations
            if v.labels == ("a", "b") and v.basis == (0, 0)]
    assert hits and hits[0].lhs == (0, 1) and hits[0].rhs == (0, 0)
    assert c.c[0][1] == (0, 1)  # sanity: the product really is e11.e12 = e12


def test_commutator_allows_single_label_nonzero_weight():
    out = commutator(catalog("N2-id-wm1"))
    assert out.kind == PLAIN_LIE_MATCHING_RB
    assert structure_ok(out)


def test_collapse_family_takes_linear_combinations():
    field = QQ
    a = BilinearMap.from_nested(field, UT)
    doc = make_doc(field, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                   {"dot": {"a": a, "b": a}}, twist=LinearMap.identity(field, 2))
    out = collapse_family(doc, {"a": 2, "b": -1})
    assert out.labels == ("*",) and out.kind == MATCHING_HOM_ASSOC
    assert out.families["dot"].maps["*"].c == a.c
    wrapped = collapse_family(doc, CoefficientFamily({"a": 2, "b": -1}))
    assert serialize_doc(wrapped) == serialize_doc(out)


def test_collapse_family_commutes_with_commutator():
    field = QQ
    a = BilinearMap.from_nested(field, UT)
    doc = make_doc(field, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                   {"dot": {"a": a, "b": a}}, twist=LinearMap.identity(field, 2))
    coeffs = {"a": 2, "b": -1}
    path1 = collapse_family(commutator(doc), coeffs)
    path2 = commutator(collapse_family(doc, coeffs))
    assert serialize_doc(path1) == serialize_doc(path2)


def test_collapse_family_scales_lie_brackets_exactly():
    from fractions import Fraction
    field = QQ
    base = BilinearMap.from_nested(field, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    double = BilinearMap.from_nested(field, [[[0, 0], [0, 2]], [[0, -2], [0, 0]]])
    doc = make_doc(field, 2, ("a", "b"), MATCHING_HOM_LIE,
                   {"bracket": {"a": base, "b": double}},
                   twist=LinearMap.identity(field, 2))
    out = collapse_family(doc, {"a": 3, "b": Fraction(1, 2)})
    assert out.families["bracket"].maps["*"].c[0][1] == (0, 4)


def test_commutator_drops_a_plain_candidate_twist():
    # a plain doc's stored twist is a candidate map, not part of the structure
    base = catalog("N2-Pnil-w0-F3")
    doc = swap_part(base, twist=LinearMap.from_rows(base.field, [[1, 0], [0, 0]]))
    assert doc.twist is not None
    out = commutator(doc)
    assert out.kind == PLAIN_LIE_MATCHING_RB and out.twist is None


def test_collapse_family_coefficients_are_canonical_scalars():
    field = GF(3)
    doc = make_doc(field, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                   {"dot": {"a": BilinearMap.from_nested(field, UT),
                            "b": BilinearMap.zero(field, 2)}},
                   twist=LinearMap.identity(field, 2))
    # 1/2 is 2 in F_3: the product e0.e0 = e0 becomes 2 e0
    half = collapse_family(doc, {"a": Fraction(1, 2), "b": 1})
    assert half.families["dot"].maps["*"].c[0][0] == (2, 0)
    assert half == collapse_family(doc, {"a": 2, "b": 1})
    for bad in (0.5, True):
        with pytest.raises(ShapeError) as exc:
            collapse_family(doc, {"a": bad, "b": 1})
        assert exc.value.path == "coeffs.a"


def test_collapse_family_error_paths():
    doc = make_doc(QQ, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                   {"dot": {"a": BilinearMap.from_nested(QQ, UT),
                            "b": BilinearMap.from_nested(QQ, UT)}},
                   twist=LinearMap.identity(QQ, 2))
    with pytest.raises(MissingCoefficientError):
        collapse_family(doc, {"a": 1})
    with pytest.raises(ParamError):
        collapse_family(doc, {"a": 1, "b": 1, "c": 1})
    with pytest.raises(PreconditionFailed):
        collapse_family(n2_p0(), {"a": 1})


def split_dendriform(field=QQ):
    return make_doc(field, 2, ("a",), MATCHING_HOM_DENDRIFORM,
                    {"left": {"a": BilinearMap.zero(field, 2)},
                     "right": {"a": BilinearMap.from_nested(field, N2)}},
                    twist=LinearMap.identity(field, 2))


def test_dendriform_twist_postcomposes_roles():
    p = LinearMap.from_rows(QQ, DIAG12)
    out = dendriform_twist(split_dendriform(), p)
    assert out.kind == MATCHING_HOM_DENDRIFORM and out.twist.rows == ((1, 0), (0, 2))
    assert out.families["right"].maps["a"].c[0][1] == (0, 2)
    assert out.families["left"].maps["a"].c == BilinearMap.zero(QQ, 2).c
    with pytest.raises(PreconditionFailed):
        dendriform_twist(out, p)  # non-identity twist on the input
    pnil = LinearMap.from_rows(QQ, [[0, 0], [1, 0]])
    with pytest.raises(PreconditionFailed) as exc:
        dendriform_twist(split_dendriform(), pnil)
    assert exc.value.report is not None


def test_dendriform_sum_restores_the_product():
    out = dendriform_sum(split_dendriform())
    assert out.kind == COMPATIBLE_HOM_ASSOC
    assert out.families["dot"].maps["a"].c == tuple(
        tuple(tuple(x for x in row) for row in plane) for plane in
        (((1, 0), (0, 1)), ((0, 1), (0, 0))))


def test_dendriform_to_prelie_is_right_minus_left_transpose():
    out = dendriform_to_prelie(split_dendriform())
    assert out.kind == MATCHING_HOM_PRELIE
    assert out.families["star"].maps["a"].c == (((1, 0), (0, 1)), ((0, 1), (0, 0)))


def test_rb_to_dendriform_splits_weighted_identity_operator():
    out = rb_to_dendriform(catalog("N2-id-wm1"))
    assert out.kind == MATCHING_HOM_DENDRIFORM
    assert out.twist.is_identity()
    # x < y = x.y + (-1) x.y = 0 and x > y = x.y
    assert out.families["left"].maps["a"].c == BilinearMap.zero(QQ, 2).c
    assert out.families["right"].maps["a"].c == (((1, 0), (0, 1)), ((0, 1), (0, 0)))


def test_rb_to_dendriform_nilpotent_operator():
    out = rb_to_dendriform(catalog("N2-Pnil-w0"))
    expect = (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    assert out.families["left"].maps["a"].c == expect
    assert out.families["right"].maps["a"].c == expect


def test_rb_to_tridendriform_puts_the_weight_in_the_middle():
    out = rb_to_tridendriform(catalog("N2-id-wm1"))
    assert out.kind == MATCHING_HOM_TRIDENDRIFORM
    dot = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    neg = (((-1, 0), (0, -1)), ((0, -1), (0, 0)))
    assert out.families["left"].maps["a"].c == dot
    assert out.families["right"].maps["a"].c == dot
    assert out.families["middle"].maps["a"].c == neg
    assert serialize_doc(dendriform_sum(out)) == serialize_doc(
        dendriform_sum(rb_to_dendriform(catalog("N2-id-wm1"))))


def test_rb_to_prelie_associative_route():
    out = rb_to_prelie(catalog("N2-id-wm1"))
    assert out.kind == MATCHING_HOM_PRELIE
    # P = id, w = -1: x * y = x.y - y.x + y.x = x.y
    assert out.families["star"].maps["a"].c == (((1, 0), (0, 1)), ((0, 1), (0, 0)))


def test_rb_to_prelie_lie_route():
    field = QQ
    bracket = BilinearMap.from_nested(field, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    proj = [[1, 0], [0, 0]]
    doc = make_doc(field, 2, ("a",), PLAIN_LIE_MATCHING_RB,
                   {"bracket": bracket},
                   operators=OperatorFamily(
                       ops={"a": LinearMap.from_rows(field, proj)},
                       weights={"a": 0}))
    assert structure_ok(doc)
    out = rb_to_prelie(doc)
    # x * y = [P(x), y]: only e0 survives P, and [e0, e1] = e1
    assert out.families["star"].maps["a"].c == (((0, 0), (0, 1)), ((0, 0), (0, 0)))
    weighted = make_doc(field, 2, ("a",), PLAIN_LIE_MATCHING_RB,
                        {"bracket": BilinearMap.zero(field, 2)},
                        operators=OperatorFamily(
                            ops={"a": LinearMap.identity(field, 2)},
                            weights={"a": 1}))
    with pytest.raises(NonzeroWeightError):
        rb_to_prelie(weighted)


def test_prelie_commutator_gives_compatible_hom_lie():
    star = rb_to_prelie(catalog("N2-id-wm1"))
    out = prelie_commutator(star)
    assert out.kind == COMPATIBLE_HOM_LIE
    # the dual-number product is commutative, so the bracket vanishes
    assert out.families["bracket"].maps["a"].c == BilinearMap.zero(QQ, 2).c
    with pytest.raises(PreconditionFailed):
        prelie_commutator(catalog("aff2"))


def test_verify_diagram_passes_on_weight_zero_fixtures():
    for name in ("N2-Pnil-w0", "N2-Pnil-w0-F2", "N2-Pnil-w0-F3"):
        report = verify_diagram(catalog(name))
        assert report.passed, name


def test_verify_diagram_nontrivial_noncommutative_case():
    doc = plain_rb(UT, [[0, 0], [1, 0]], 0)
    assert verify_diagram(doc).passed
    # both paths produce the same nonzero star: x * y = -(y.P(x)) here
    star = dendriform_to_prelie(rb_to_dendriform(doc))
    assert star.families["star"].maps["a"].c == (((0, -1), (0, 0)), ((0, 0), (0, 0)))


def test_verify_diagram_guards():
    with pytest.raises(NonzeroWeightError):
        verify_diagram(catalog("N2-id-wm1"))
    with pytest.raises(PreconditionFailed):
        verify_diagram(catalog("aff2"))


def test_checked_output_raises_on_failing_doc():
    # the raising machinery itself, fed a doc that fails its check
    bad = make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC,
                   {"dot": {"a": BilinearMap.from_nested(
                       QQ, [[[1, 0], [1, 0]], [[0, 0], [0, 0]]])}},
                   twist=LinearMap.identity(QQ, 2))
    with pytest.raises(TheoremCheckError) as exc:
        _checked_output(bad, "unit-test")
    assert exc.value.report is not None and not exc.value.report.passed
