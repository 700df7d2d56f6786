"""Constructions: frozen output oracles, round trips, and hypothesis guards.

Oracle values were computed by hand from the defining formulas before the
tests were run; tensors are asserted entrywise, not just re-checked.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from halg import (GF, QQ, TARGET_COMMUTING, TARGET_ENDOMORPHISM,
                  TARGET_RB_FAMILY, BilinearMap, CheckReport,
                  CoefficientFamily, HalgError, LinearMap,
                  MissingCoefficientError, NonzeroWeightError, OperatorFamily,
                  ParamError, PowerBoundError, PreconditionFailed, SearchSpec,
                  ShapeError, TheoremCheckError, apply_map, bilinear_apply,
                  catalog, centroid_twist, check_morphism, check_structure,
                  collapse_family, commutator, dendriform_sum,
                  dendriform_to_prelie, dendriform_twist, derived_algebra,
                  kernel_vector, make_doc, map_compose, map_invert, parse_doc,
                  postcompose, precompose_left, precompose_right,
                  prelie_commutator, rb_to_dendriform, rb_to_prelie,
                  rb_to_tridendriform, report_to_jsonable, seeded_sample,
                  serialize_doc, structure_ok, tensor_transpose, untwist,
                  verify_diagram, yau_twist)
from halg.constructions import MAX_DERIVED_LEVEL, _checked_output
from halg.structures import (COMPATIBLE_HOM_ASSOC, COMPATIBLE_HOM_LIE,
                             HOM_ASSOC_MATCHING_RB, KIND_ROLES, MATCHING_HOM_ASSOC,
                             MATCHING_HOM_DENDRIFORM, MATCHING_HOM_LIE,
                             MATCHING_HOM_LIE_RB, MATCHING_HOM_PRELIE,
                             MATCHING_HOM_TRIDENDRIFORM,
                             PLAIN_ASSOC_MATCHING_RB, PLAIN_LIE_MATCHING_RB,
                             RB_KINDS, TOTALLY_COMPATIBLE_HOM_ASSOC, swap_part)

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


# --- functoriality: isomorphic inputs give isomorphic outputs --------------------

FUNCTORS = {
    "rb_to_dendriform": rb_to_dendriform,
    "rb_to_tridendriform": rb_to_tridendriform,
    "rb_to_prelie": rb_to_prelie,
    "commutator": commutator,
    "dendriform_sum after rb_to_dendriform":
        lambda d: dendriform_sum(rb_to_dendriform(d)),
    "dendriform_to_prelie after rb_to_dendriform":
        lambda d: dendriform_to_prelie(rb_to_dendriform(d)),
    "prelie_commutator after rb_to_prelie":
        lambda d: prelie_commutator(rb_to_prelie(d)),
}


def _rb_docs():
    """The catalog's rb docs and seeded 1- and 2-label families over F_2
    and F_3 on the zero product, the dual numbers, the ground field and the
    nonabelian Lie algebra."""
    docs = [d for _, d in sorted(catalog().items()) if d.kind in RB_KINDS]
    rng = random.Random(5)
    for p in (2, 3):
        for name in ("Z2", "N2", "D1", "aff2"):
            for k in (1, 2):
                weights = tuple(rng.randrange(p) for _ in range(k))
                spec = SearchSpec(catalog(f"{name}-F{p}"), TARGET_RB_FAMILY,
                                  omega_size=k, weights=weights)
                docs += seeded_sample(spec, rng.randrange(1 << 30), 4).docs
    return docs


def _random_invertible(field, dim, rng):
    """A random invertible map other than the identity, or None when the
    identity is the only one (dim 1 over F_2)."""
    if field == GF(2) and dim == 1:
        return None
    while True:
        g = LinearMap.from_rows(field, [
            [field.random_scalar(rng) if field.is_prime_field else rng.randrange(-2, 3)
             for _ in range(dim)] for _ in range(dim)])
        if not g.is_identity() and kernel_vector(g) is None:
            return g


def _conjugated(doc, g):
    """g.doc, with product g m(g^-1 x, g^-1 y), operators g P g^-1 and
    twist g p g^-1, so that g is an isomorphism from doc to it."""
    ginv = map_invert(g)

    def conj(f):
        return map_compose(map_compose(g, f), ginv)
    prod = postcompose(precompose_right(precompose_left(doc.product(), ginv), ginv), g)
    ops = OperatorFamily({lab: conj(P) for lab, P in doc.operators.ops.items()},
                         doc.operators.weights)
    return make_doc(doc.field, doc.dim, doc.omega, doc.kind,
                    {KIND_ROLES[doc.kind][0]: prod}, operators=ops,
                    twist=None if doc.twist is None else conj(doc.twist))


def test_constructions_carry_isomorphisms_to_morphisms():
    # a construction F is a functor: an isomorphism g from A to g.A must be
    # a morphism from F(A) to F(g.A); each pair skipped is one that F
    # refuses on a precondition, which holds for A exactly when for g.A
    rng = random.Random(11)
    ran = dict.fromkeys(FUNCTORS, 0)
    for doc in _rb_docs():
        for _ in range(2):
            g = _random_invertible(doc.field, doc.dim, rng)
            if g is None:
                continue
            moved = _conjugated(doc, g)
            assert check_morphism(g, doc, moved).passed
            for name, functor in FUNCTORS.items():
                try:
                    out = functor(doc)
                except (PreconditionFailed, NonzeroWeightError) as e:
                    with pytest.raises(type(e)):
                        functor(moved)
                    continue
                assert check_morphism(g, out, functor(moved)).passed, (name, doc, g)
                ran[name] += 1
    assert all(n >= 50 for n in ran.values()), ran


# --- bases of the seeded corpora below ------------------------------------------

def _truncated_polynomials(field):
    """k[t]/t^3: e_i e_j = e_(i+j) when i + j < 3."""
    return BilinearMap.from_nested(field, [[[int(k == i + j) for k in range(3)]
                                            for j in range(3)] for i in range(3)])


def _triangular(field):
    """The upper triangular 2 x 2 matrices on e11, e12, e22, which do not
    commute."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][0][0] = c[0][1][1] = c[1][2][1] = c[2][2][2] = 1
    return BilinearMap.from_nested(field, c)


def _hom_assoc(product):
    field, dim = product.field, product.dim
    return make_doc(field, dim, ("a",), MATCHING_HOM_ASSOC, {"dot": {"a": product}},
                    twist=LinearMap.identity(field, dim))


# --- pinned bytes: every construction's output or refusal ------------------------

def _bytes_corpus():
    """The catalog, seeded rb-family samples over F_2 and F_3 (one and two
    labels on Z2, N2, D1, aff2 and the noncommutative UT; one label on the
    triangular matrices), and endomorphism and commuting hits, which carry a
    stored candidate twist."""
    docs = [doc for _, doc in sorted(catalog().items())]
    rng = random.Random(1304)
    for p in (2, 3):
        field = GF(p)
        bases = [catalog(f"{name}-F{p}") for name in ("Z2", "N2", "D1", "aff2")]
        bases.append(_hom_assoc(BilinearMap.from_nested(field, UT)))
        for base in bases:
            for k in (1, 2):
                weights = tuple(rng.randrange(p) for _ in range(k))
                spec = SearchSpec(base, TARGET_RB_FAMILY, omega_size=k, weights=weights)
                docs += seeded_sample(spec, rng.randrange(1 << 30), 3).docs
        spec = SearchSpec(_hom_assoc(_triangular(field)), TARGET_RB_FAMILY, omega_size=1,
                          weights=(rng.randrange(p),))
        docs += seeded_sample(spec, rng.randrange(1 << 30), 3).docs
        for target in (TARGET_ENDOMORPHISM, TARGET_COMMUTING):
            spec = SearchSpec(catalog(f"N2-Pnil-w0-F{p}"), target)
            docs += seeded_sample(spec, rng.randrange(1 << 30), 3).docs
    return docs


def _every_construction(doc):
    """(name, thunk) for every construction and parameter set on doc."""
    field, dim = doc.field, doc.dim
    maps = [LinearMap.identity(field, dim),
            LinearMap.from_rows(field, [[2 if i == j else 0 for j in range(dim)]
                                        for i in range(dim)])]
    if doc.twist is not None:
        maps.append(doc.twist)
    for n, p in enumerate(maps):
        yield f"yau_twist[{n}]", lambda p=p: yau_twist(doc, p)
        for variant in (1, 2):
            yield f"centroid_twist[{n}, {variant}]", \
                lambda p=p, v=variant: centroid_twist(doc, p, v)
        yield f"dendriform_twist[{n}]", lambda p=p: dendriform_twist(doc, p)
    yield "untwist", lambda: untwist(doc)
    for n, variant in ((0, 1), (1, 1), (2, 1), (1, 2), (2, 2)):
        yield f"derived[{n}, {variant}]", lambda n=n, v=variant: derived_algebra(doc, n, v)
    yield "collapse ones", lambda: collapse_family(doc, dict.fromkeys(doc.labels, 1))
    yield "collapse", lambda: collapse_family(doc, CoefficientFamily(
        {lab: Fraction(i + 1, 2) for i, lab in enumerate(doc.labels)}))
    for f in (commutator, prelie_commutator, dendriform_sum, dendriform_to_prelie,
              rb_to_dendriform, rb_to_tridendriform, rb_to_prelie, verify_diagram):
        yield f.__name__, lambda f=f: f(doc)


CONSTRUCTION_DIGEST = (
    "7d22a00f6b78a35132c379376c8587f50ca137e2ca5a820e150b25704c2dcbaa")


def test_construction_bytes_are_pinned():
    """Every construction and parameter set on a seeded corpus and on one
    chained level of its outputs: the bytes of each output, or the class,
    message and report of each refusal, hash to a pinned digest."""
    digest = hashlib.sha256()
    counts = {"applied": 0, "refused": 0, "report": 0}
    level = _bytes_corpus()
    for depth in (0, 1):
        outputs = []
        for n, doc in enumerate(level):
            for name, run in _every_construction(doc):
                try:
                    out = run()
                except HalgError as e:
                    report = getattr(e, "report", None)
                    payload = ["refused", type(e).__name__, str(e), None if report is None
                               else report_to_jsonable(report, doc.field)]
                else:
                    if isinstance(out, CheckReport):
                        payload = ["report", report_to_jsonable(out, doc.field)]
                    else:
                        payload = ["applied", serialize_doc(out).decode()]
                        outputs.append(out)
                counts[payload[0]] += 1
                digest.update(json.dumps([depth, n, name, payload],
                                         separators=(",", ":")).encode())
                digest.update(b"\n")
        level = outputs[::4]
    assert min(counts.values()) > 20, counts
    assert digest.hexdigest() == CONSTRUCTION_DIGEST, counts


# --- the rows against the paper's formulas, entry by entry ----------------------

def _oracle_docs():
    """rb docs that pass their check, over F_3 and Q at dims 2 and 3 with
    one and two labels: the catalog's, seeded rb-family hits over F_3, and
    over Q, multiples of the integration operator t^i -> t^(i+1)/(i+1) on
    Q[t]/t^3 (weight 0) and -w id on the triangular matrices (weight w)."""
    f3 = GF(3)
    docs = [d for _, d in sorted(catalog().items())
            if d.kind in RB_KINDS and d.field in (f3, QQ)]
    heisenberg = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    heisenberg[0][1][2], heisenberg[1][0][2] = 1, 2
    bases = [
        (catalog("N2-F3"), [(0,), (2,), (0, 0), (1, 2)]),
        (_hom_assoc(BilinearMap.from_nested(f3, UT)), [(1,), (2,), (0, 1), (1, 2)]),
        (catalog("aff2-F3"), [(0,), (1,), (0, 0)]),
        (_hom_assoc(_truncated_polynomials(f3)), [(0,), (2,)]),
        (_hom_assoc(_triangular(f3)), [(0,), (1,), (2,)]),
        (make_doc(f3, 3, ("a",), MATCHING_HOM_LIE,
                  {"bracket": {"a": BilinearMap.from_nested(f3, heisenberg)}},
                  twist=LinearMap.identity(f3, 3)), [(0,), (1,)]),
    ]
    rng = random.Random(2003)
    for base, weight_sets in bases:
        for weights in weight_sets:
            spec = SearchSpec(base, TARGET_RB_FAMILY, omega_size=len(weights),
                              weights=weights)
            docs += seeded_sample(spec, rng.randrange(1 << 30), 3).docs
    integrate = [[0, 0, 0], [1, 0, 0], [0, Fraction(1, 2), 0]]
    for scales in ((1,), (1, -2)):
        labels = ("a", "b")[:len(scales)]
        docs.append(make_doc(QQ, 3, labels, PLAIN_ASSOC_MATCHING_RB,
                             {"dot": _truncated_polynomials(QQ)},
                             operators=OperatorFamily(
                                 {lab: LinearMap.from_rows(QQ, [[s * v for v in row]
                                                                for row in integrate])
                                  for lab, s in zip(labels, scales)},
                                 dict.fromkeys(labels, 0))))
    for w in (2, Fraction(-1, 2)):
        scaled = LinearMap.from_rows(QQ, [[-w * int(i == j) for j in range(3)]
                                          for i in range(3)])
        docs.append(make_doc(QQ, 3, ("a",), PLAIN_ASSOC_MATCHING_RB,
                             {"dot": _triangular(QQ)},
                             operators=OperatorFamily({"a": scaled}, {"a": w})))
    assert all(structure_ok(d) for d in docs)
    return docs


def _entrywise(docs) -> dict:
    """Each row-built tensor of each doc, entry by entry, against its
    formula evaluated on basis vectors with bilinear_apply and apply_map;
    the number of tensors compared per row."""
    seen = {}

    def compare(name, out, role, formula):
        dim = out.dim
        basis = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
        for lab in out.labels:
            c = out.families[role].maps[lab].c
            for i, j in itertools.product(range(dim), repeat=2):
                assert c[i][j] == formula(lab, basis[i], basis[j]), (name, lab, i, j)
        seen[name] = seen.get(name, 0) + 1

    def attempt(construction, doc):
        try:
            return construction(doc)
        except (PreconditionFailed, NonzeroWeightError):
            return None

    for doc in docs:
        field, dim = doc.field, doc.dim

        def comb(*terms):
            return tuple(field.reduce(sum(a * v[k] for a, v in terms)) for k in range(dim))

        def on(m):
            return lambda x, y: bilinear_apply(m, x, y)

        mul = on(doc.product())
        w = doc.operators.weights

        def P(lab, x):
            return apply_map(doc.operators.ops[lab], x)

        assoc = doc.kind in (PLAIN_ASSOC_MATCHING_RB, HOM_ASSOC_MATCHING_RB)
        prelie = attempt(rb_to_prelie, doc)
        if prelie is not None:
            if assoc:
                compare("rb_to_prelie, associative", prelie, "star",
                        lambda a, x, y: comb((1, mul(P(a, x), y)), (-1, mul(y, P(a, x))),
                                             (-w[a], mul(y, x))))
            else:
                compare("rb_to_prelie, Lie", prelie, "star",
                        lambda a, x, y: mul(P(a, x), y))
            star = prelie.families["star"].maps
            compare("prelie_commutator", prelie_commutator(prelie), "bracket",
                    lambda a, x, y: comb((1, on(star[a])(x, y)), (-1, on(star[a])(y, x))))
        if not assoc:
            continue
        lie = attempt(commutator, doc)
        if lie is not None:
            compare("commutator, rb", lie, "bracket",
                    lambda a, x, y: comb((1, mul(x, y)), (-1, mul(y, x))))
        dend = rb_to_dendriform(doc)
        compare("rb_to_dendriform, left", dend, "left",
                lambda a, x, y: comb((1, mul(x, P(a, y))), (w[a], mul(x, y))))
        compare("rb_to_dendriform, right", dend, "right",
                lambda a, x, y: mul(P(a, x), y))
        tri = rb_to_tridendriform(doc)
        for role, formula in (("left", lambda a, x, y: mul(x, P(a, y))),
                              ("middle", lambda a, x, y: comb((w[a], mul(x, y)))),
                              ("right", lambda a, x, y: mul(P(a, x), y))):
            compare(f"rb_to_tridendriform, {role}", tri, role, formula)
        left, right = dend.families["left"].maps, dend.families["right"].maps
        compare("dendriform_to_prelie", dendriform_to_prelie(dend), "star",
                lambda a, x, y: comb((1, on(right[a])(x, y)), (-1, on(left[a])(y, x))))
        for split in (dend, tri):
            summed = dendriform_sum(split)
            compare("dendriform_sum", summed, "dot",
                    lambda a, x, y: comb(*((1, on(fam.maps[a])(x, y))
                                           for fam in split.families.values())))
            dot = summed.families["dot"].maps
            compare("commutator, family", commutator(summed), "bracket",
                    lambda a, x, y: comb((1, on(dot[a])(x, y)), (-1, on(dot[a])(y, x))))
    return seen


def test_rows_match_the_paper_formulas_entrywise():
    seen = _entrywise(_oracle_docs())
    assert min(seen.values()) >= 8 and len(seen) == 12, seen


def _fractional_invertible(dim, rng):
    while True:
        g = LinearMap.from_rows(QQ, [[rng.choice((0, 1, -1, Fraction(1, 2), Fraction(-2, 3),
                                                  Fraction(3, 2))) for _ in range(dim)]
                                     for _ in range(dim)])
        if not g.is_identity() and kernel_vector(g) is None:
            return g


def _fractional_docs():
    """The Q docs of _oracle_docs, their commutators, and the triangular
    matrices with -w id at w = 2/3, each conjugated by two seeded maps with
    fractional entries, so that products, operators and twists have
    fractional entries, on weights 0, 2, -1/2 and 2/3."""
    rng = random.Random(31)
    w = Fraction(2, 3)
    docs = [d for d in _oracle_docs() if d.field == QQ]
    docs.append(make_doc(QQ, 3, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": _triangular(QQ)},
                         operators=OperatorFamily(
                             {"a": LinearMap.from_rows(QQ, [[-w * int(i == j) for j in range(3)]
                                                            for i in range(3)])}, {"a": w})))
    for doc in list(docs):
        try:
            docs.append(commutator(doc))
        except (PreconditionFailed, NonzeroWeightError):
            pass
    out = [_conjugated(doc, _fractional_invertible(doc.dim, rng))
           for doc in docs for _ in range(2)]
    assert all(structure_ok(d) for d in out)
    return out


def test_rows_match_the_paper_formulas_entrywise_on_fractional_docs():
    """Over Q, where the evaluator scales every map by one common
    denominator, every row-built tensor and the tensor operations on
    fractional maps divide back to the paper's formulas."""
    docs = _fractional_docs()
    seen = _entrywise(docs)
    assert min(seen.values()) >= 6 and len(seen) == 12, seen
    rng = random.Random(32)
    for doc in docs:
        m, dim = doc.product(), doc.dim
        f = _fractional_invertible(dim, rng)
        basis = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
        for made, formula in (
                (postcompose(m, f), lambda x, y: apply_map(f, bilinear_apply(m, x, y))),
                (precompose_left(m, f), lambda x, y: bilinear_apply(m, apply_map(f, x), y)),
                (precompose_right(m, f), lambda x, y: bilinear_apply(m, x, apply_map(f, y))),
                (tensor_transpose(m), lambda x, y: bilinear_apply(m, y, x))):
            for i, j in itertools.product(range(dim), repeat=2):
                assert made.c[i][j] == formula(basis[i], basis[j]), (doc.kind, i, j)
