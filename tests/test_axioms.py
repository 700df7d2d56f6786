"""Identity checking: frozen witnesses, side conditions, morphisms, and the
basis-vs-element completeness property.

The element-level oracle at the bottom re-evaluates every identity over ALL
carrier elements of F_2^n with its own non-skipping arithmetic; agreement
with the basis-triple engine is what multilinearity promises.
"""

import ast
import hashlib
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import halg.axioms
from halg import (GF, QQ, SIDE_CONDITIONS, BilinearMap, DimensionMismatch,
                  HalgError, KindMismatch, LinearMap, OperatorFamily,
                  ParamError, ShapeError, UnknownConditionError, Violation,
                  catalog, check_morphism, check_side_conditions,
                  check_structure, commutator, dendriform_sum, kernel_vector,
                  make_doc, map_invert, prelie_commutator, rb_to_dendriform,
                  rb_to_prelie, rb_to_tridendriform, replay_violation,
                  report_to_jsonable, structure_ok, yau_twist)
import halg._runners
from halg._codegen import (_degree, _runner_source, _sides, facts, main, rows,
                           source)
from halg.axioms import (_FILLS, _MAP_LAWS, DENDRIFORM_AXIOM3_TWIST, _frame,
                         _laws_for, _map_laws, _plan, _points, _structure_laws,
                         _violations)
from halg.structures import (COMPATIBLE_HOM_ASSOC, COMPATIBLE_HOM_LIE,
                             HOM_ASSOC_MATCHING_RB, KIND_ROLES, KINDS,
                             MATCHING_HOM_ASSOC, MATCHING_HOM_DENDRIFORM,
                             MATCHING_HOM_LIE, MATCHING_HOM_LIE_RB,
                             MATCHING_HOM_PRELIE, MATCHING_HOM_TRIDENDRIFORM,
                             PLAIN_ASSOC_MATCHING_RB, PLAIN_LIE_MATCHING_RB,
                             PLAIN_RB_KINDS, RB_KINDS,
                             TOTALLY_COMPATIBLE_HOM_ASSOC)

N2 = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]


def n2doc(field=QQ, kind=MATCHING_HOM_ASSOC, labels=("a",)):
    return make_doc(field, 2, labels, kind,
                    {"dot": {lab: BilinearMap.from_nested(field, N2)
                             for lab in labels}},
                    twist=LinearMap.identity(field, 2))


def test_every_catalog_fixture_passes_its_check():
    for name, doc in catalog().items():
        report = check_structure(doc)
        assert report.passed, (name, report.violations[:2])


def test_zero_tensors_pass_every_kind_with_arbitrary_decorations():
    field = GF(3)
    zero = BilinearMap.zero(field, 2)
    odd_twist = LinearMap.from_rows(field, [[2, 1], [0, 1]])
    odd_op = LinearMap.from_rows(field, [[1, 2], [2, 0]])
    for kind in KINDS:
        if kind in RB_KINDS:
            families = {role: zero for role in KIND_ROLES[kind]}
            doc = make_doc(field, 2, ("a", "b"), kind, families,
                           operators=OperatorFamily(
                               ops={"a": odd_op, "b": odd_twist},
                               weights={"a": 2, "b": 1}),
                           twist=None if kind in PLAIN_RB_KINDS else odd_twist)
        else:
            families = {role: {"a": zero, "b": zero}
                        for role in KIND_ROLES[kind]}
            doc = make_doc(field, 2, ("a", "b"), kind, families, twist=odd_twist)
        assert structure_ok(doc), kind


def test_dual_numbers_are_matching_hom_associative():
    assert structure_ok(n2doc())


def test_failing_product_reports_ordered_replayable_witnesses():
    # e0.e0 = e0 and e0.e1 = e0: associativity breaks wherever e1 enters
    c = [[[1, 0], [1, 0]], [[0, 0], [0, 0]]]
    doc = make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC,
                   {"dot": {"a": BilinearMap.from_nested(QQ, c)}},
                   twist=LinearMap.identity(QQ, 2))
    report = check_structure(doc)
    assert not report.passed
    # canonical order: first failure is (0,1,0); the classic witness (0,1,1)
    # -- (e0.e1).e1 = e0 versus e0.(e1.e1) = 0 -- must also be present
    assert report.violations[0].basis == (0, 1, 0)
    hits = [v for v in report.violations if v.basis == (0, 1, 1)]
    assert hits and hits[0].lhs == (1, 0) and hits[0].rhs == (0, 0)
    for v in report.violations:
        lhs, rhs = replay_violation(doc, v)
        assert (lhs, rhs) == (v.lhs, v.rhs) and lhs != rhs
    foreign = Violation(axiom="matching-rb", labels=("a", "a"),
                        basis=(0, 0), lhs=(0,), rhs=(1,))
    with pytest.raises(ParamError):
        replay_violation(doc, foreign)


def test_identity_operators_at_weight_minus_one_are_matching_rb():
    field = QQ
    id2 = LinearMap.identity(field, 2)
    doc = make_doc(field, 2, ("a", "b"), HOM_ASSOC_MATCHING_RB,
                   {"dot": BilinearMap.from_nested(field, N2)},
                   operators=OperatorFamily(ops={"a": id2, "b": id2},
                                            weights={"a": -1, "b": -1}),
                   twist=id2)
    assert structure_ok(doc)


def test_side_conditions_identity_passes_all_five():
    doc = n2doc()
    report = check_side_conditions(doc, list(("endomorphism", "multiplicative",
                                              "centroid", "invertible")))
    assert report.passed


def test_side_condition_centroid_witness():
    doc = n2doc()
    p = LinearMap.from_rows(QQ, [[1, 0], [0, 2]])
    report = check_side_conditions(doc, ["centroid"], candidate=p)
    assert not report.passed
    v = report.violations[0]
    # p(u.t) = 2t but p(u).t = t
    assert v.basis == (0, 1) and v.lhs == (0, 2) and v.rhs == (0, 1)
    scalar = LinearMap.from_rows(QQ, [[3, 0], [0, 3]])
    assert check_side_conditions(doc, ["centroid"], candidate=scalar).passed


def test_side_condition_invertible_witness_is_kernel_vector():
    doc = n2doc()
    pnil = LinearMap.from_rows(QQ, [[0, 0], [1, 0]])
    report = check_side_conditions(doc, ["invertible"], candidate=pnil)
    assert not report.passed
    v = report.violations[0]
    assert v.axiom == "invertible" and v.lhs != (0, 0) and tuple(v.rhs) == (0, 0)


def test_side_condition_commutes_needs_operators():
    with pytest.raises(ShapeError):
        check_side_conditions(n2doc(), ["commutes"])
    rb = catalog("N2-Pnil-w0")
    assert check_side_conditions(rb, ["commutes"]).passed  # p = id commutes
    other = LinearMap.from_rows(QQ, [[1, 0], [0, 2]])
    assert not check_side_conditions(rb, ["commutes"], candidate=other).passed


def test_side_condition_unknown_tag_and_mismatches():
    with pytest.raises(UnknownConditionError):
        check_side_conditions(n2doc(), ["unitary"])
    with pytest.raises(DimensionMismatch):
        check_side_conditions(n2doc(), ["endomorphism"],
                              candidate=LinearMap.identity(QQ, 3))


def test_side_conditions_must_be_a_sequence_of_tags():
    for conditions in ("endomorphism", None, {"endomorphism"}, 3):
        with pytest.raises(ParamError, match="sequence of tags"):
            check_side_conditions(n2doc(), conditions)
    assert check_side_conditions(n2doc(), ("endomorphism",)).passed


def dendriform_split_doc(field=QQ):
    """left = 0, right = the dual-number product: a valid dendriform doc."""
    return make_doc(field, 2, ("a",), MATCHING_HOM_DENDRIFORM,
                    {"left": {"a": BilinearMap.zero(field, 2)},
                     "right": {"a": BilinearMap.from_nested(field, N2)}},
                    twist=LinearMap.identity(field, 2))


def test_check_morphism_identity_and_zero():
    doc = dendriform_split_doc()
    assert check_morphism(LinearMap.identity(QQ, 2), doc, doc).passed
    zero = LinearMap.from_rows(QQ, [[0, 0], [0, 0]])
    assert check_morphism(zero, doc, doc).passed


def test_check_morphism_nilpotent_witness():
    doc = dendriform_split_doc()
    pnil = LinearMap.from_rows(QQ, [[0, 0], [1, 0]])
    report = check_morphism(pnil, doc, doc)
    assert not report.passed
    v = report.violations[0]
    # f(u > u) = f(u) = t while f(u) > f(u) = t.t = 0
    assert v.axiom == "morphism-right"
    assert v.basis == (0, 0) and v.lhs == (0, 1) and v.rhs == (0, 0)


def test_check_morphism_twist_intertwine():
    src = dendriform_split_doc()
    dst = make_doc(QQ, 2, ("a",), MATCHING_HOM_DENDRIFORM,
                   {"left": src.families["left"], "right": src.families["right"]},
                   twist=LinearMap.from_rows(QQ, [[1, 0], [0, 0]]))
    report = check_morphism(LinearMap.identity(QQ, 2), src, dst)
    assert any(v.axiom == "twist-intertwine" for v in report.violations)


def test_check_morphism_reads_a_plain_kinds_twist_as_the_identity():
    # a plain doc's stored twist is a candidate map, not its structure twist
    doc = catalog("N2-Pnil-w0-F3")
    field = doc.field
    cand = make_doc(field, 2, doc.omega, doc.kind, doc.families,
                    operators=doc.operators,
                    twist=LinearMap.from_rows(field, [[1, 0], [0, 2]]))
    ident = LinearMap.identity(field, 2)
    assert check_morphism(ident, cand, doc).passed
    assert check_morphism(ident, doc, cand).passed


def test_check_morphism_intertwines_the_operators():
    doc = catalog("N2-Pnil-w0-F3")
    field = doc.field
    zero_op = make_doc(field, 2, doc.omega, doc.kind, doc.families,
                       operators=OperatorFamily(
                           ops={"a": LinearMap.from_rows(field, [[0, 0], [0, 0]])},
                           weights=doc.operators.weights))
    assert structure_ok(doc) and structure_ok(zero_op)
    report = check_morphism(LinearMap.identity(field, 2), doc, zero_op)
    # f P_a(u) = t while P'_a f(u) = 0
    assert [(v.axiom, v.labels, v.basis, v.lhs, v.rhs) for v in report.violations] \
        == [("operator-intertwine", ("a",), (0,), (0, 1), (0, 0))]
    assert check_morphism(LinearMap.identity(field, 2), doc, doc).passed


def test_check_morphism_mismatches():
    doc = dendriform_split_doc()
    with pytest.raises(KindMismatch):
        check_morphism(LinearMap.identity(QQ, 2), doc, n2doc())
    with pytest.raises(DimensionMismatch):
        check_morphism(LinearMap.identity(QQ, 3), doc, doc)


def test_check_morphism_refuses_docs_of_different_weights():
    # the zero product with P_a = 0 is Rota-Baxter at every weight, but the
    # docs at weight 0 and weight 1 are not one structure
    field = GF(3)
    zero_op = LinearMap.from_rows(field, [[0, 0], [0, 0]])
    at0, at1 = (make_doc(field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                         {"dot": BilinearMap.zero(field, 2)},
                         operators=OperatorFamily({"a": zero_op}, {"a": w}))
                for w in (0, 1))
    assert structure_ok(at0) and structure_ok(at1)
    with pytest.raises(KindMismatch, match="weights"):
        check_morphism(LinearMap.identity(field, 2), at0, at1)


def _with_entries(doc, edits):
    """doc with c[i][j] of role at lab replaced by vec, per (role, lab, i, j, vec)."""
    families = {role: {lab: [[list(v) for v in row] for row in fam.maps[lab].c]
                       for lab in doc.labels}
                for role, fam in doc.families.items()}
    for role, lab, i, j, vec in edits:
        families[role][lab][i][j] = vec
    return make_doc(doc.field, doc.dim, doc.omega, doc.kind,
                    {role: {lab: BilinearMap.from_nested(doc.field, c)
                            for lab, c in fam.items()}
                     for role, fam in families.items()},
                    twist=doc.twist)


def test_first_difference_reports_the_first_entry_in_role_label_basis_order():
    from halg.axioms import first_difference
    f3 = GF(3)
    fam = n2doc(f3, labels=("a", "b"))
    # 4 and -1 are read as 1 and 2 over F_3
    other = _with_entries(fam, [("dot", "b", 0, 0, [4, 0]), ("dot", "a", 1, 1, [0, -1]),
                                ("dot", "a", 1, 0, [2, 2])])
    v = first_difference(fam, other)
    assert (v.axiom, v.labels, v.basis, v.lhs, v.rhs) \
        == ("diagram-dot", ("a",), (1, 0), (0, 1), (2, 2))
    v = first_difference(other, fam)
    assert (v.labels, v.basis, v.lhs, v.rhs) == (("a",), (1, 0), (2, 2), (0, 1))
    only_b = _with_entries(fam, [("dot", "b", 1, 1, [-1, 4])])
    v = first_difference(fam, only_b)
    assert (v.labels, v.basis, v.lhs, v.rhs) == (("b",), (1, 1), (0, 0), (2, 1))
    # the left role comes before the right one, whatever the entries
    dend = dendriform_split_doc(f3)
    moved = _with_entries(dend, [("right", "a", 0, 0, [0, 0]), ("left", "a", 1, 1, [1, 0])])
    v = first_difference(dend, moved)
    assert (v.axiom, v.labels, v.basis, v.lhs, v.rhs) \
        == ("diagram-left", ("a",), (1, 1), (0, 0), (1, 0))
    v = first_difference(dend, _with_entries(dend, [("right", "a", 0, 1, [0, 2])]))
    assert (v.axiom, v.labels, v.basis, v.lhs, v.rhs) \
        == ("diagram-right", ("a",), (0, 1), (0, 1), (0, 2))


def test_first_difference_finds_none_between_identical_docs():
    from halg.axioms import first_difference
    fam, dend = n2doc(GF(3), labels=("a", "b")), dendriform_split_doc()
    for doc, copy in ((fam, _with_entries(fam, [])), (dend, _with_entries(dend, [])),
                      (catalog("N2-Pnil-w0-F3"), catalog("N2-Pnil-w0-F3"))):
        assert first_difference(doc, doc) is None
        assert first_difference(doc, copy) is None
    with pytest.raises(KindMismatch):
        first_difference(dendriform_split_doc(), n2doc())


# frozen discriminators over F_2, dim 2, |Omega| = 2: the three associative
# compatibility kinds genuinely differ (found by exhaustive search over
# pairs of associative tensors; bit strings are row-major c[i][j][k])
COMP_NOT_MATCH = ((0, 0, 1, 0, 1, 0, 0, 1), (0, 1, 1, 0, 1, 0, 0, 1))
MATCH_NOT_TOT = ((1, 0, 1, 0, 0, 1, 0, 1), (0, 0, 1, 0, 0, 0, 0, 1))
TOT_NOT_MATCH = ((1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1, 0, 1))


def _bits_to_map(field, bits):
    it = iter(bits)
    c = [[[next(it) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    return BilinearMap.from_nested(field, c)


def _pair_doc(kind, pair):
    field = GF(2)
    return make_doc(field, 2, ("a", "b"), kind,
                    {"dot": {"a": _bits_to_map(field, pair[0]),
                             "b": _bits_to_map(field, pair[1])}},
                    twist=LinearMap.identity(field, 2))


def test_associative_compatibility_kinds_are_distinct():
    expected = {
        COMP_NOT_MATCH: (False, True, False),   # (matching, compatible, totally)
        MATCH_NOT_TOT: (True, True, False),
        TOT_NOT_MATCH: (False, True, True),
    }
    for pair, (m, c, t) in expected.items():
        assert structure_ok(_pair_doc(MATCHING_HOM_ASSOC, pair)) is m
        assert structure_ok(_pair_doc(COMPATIBLE_HOM_ASSOC, pair)) is c
        assert structure_ok(_pair_doc(TOTALLY_COMPATIBLE_HOM_ASSOC, pair)) is t


def test_matching_and_totally_imply_compatible_exhaustively():
    """Across all pairs of dim-2 associative tensors over F_2."""
    field = GF(2)
    singles = []
    for n in range(256):
        bits = tuple((n >> s) & 1 for s in range(8))
        doc = make_doc(field, 2, ("a",), MATCHING_HOM_ASSOC,
                       {"dot": {"a": _bits_to_map(field, bits)}},
                       twist=LinearMap.identity(field, 2))
        if structure_ok(doc):
            singles.append(bits)
    assert len(singles) == 28  # pinned from the first enumeration run
    passing_matching = passing_totally = 0
    for a in singles:
        for b in singles:
            m = structure_ok(_pair_doc(MATCHING_HOM_ASSOC, (a, b)))
            t = structure_ok(_pair_doc(TOTALLY_COMPATIBLE_HOM_ASSOC, (a, b)))
            if m or t:
                assert structure_ok(_pair_doc(COMPATIBLE_HOM_ASSOC, (a, b)))
            passing_matching += m
            passing_totally += t
    assert passing_matching > 0 and passing_totally > 0


def _alternating_brackets_f2():
    field = GF(2)
    out = []
    for b0 in range(2):
        for b1 in range(2):
            c = [[[0, 0], [b0, b1]], [[b0, b1], [0, 0]]]  # -1 = 1 mod 2
            out.append(BilinearMap.from_nested(field, c))
    return out


def test_matching_lie_implies_compatible_lie():
    field = GF(2)
    id2 = LinearMap.identity(field, 2)
    count = 0
    for ba in _alternating_brackets_f2():
        for bb in _alternating_brackets_f2():
            fams = {"bracket": {"a": ba, "b": bb}}
            if structure_ok(make_doc(field, 2, ("a", "b"), MATCHING_HOM_LIE,
                                     fams, twist=id2)):
                count += 1
                assert structure_ok(make_doc(field, 2, ("a", "b"),
                                             COMPATIBLE_HOM_LIE, fams, twist=id2))
    assert count > 0


def test_singleton_rationals_matching_iff_compatible():
    rng = random.Random(11)
    id2 = LinearMap.identity(QQ, 2)
    for _ in range(60):
        c = [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
             for _ in range(2)]
        fams = {"dot": {"a": BilinearMap.from_nested(QQ, c)}}
        m = structure_ok(make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, fams, twist=id2))
        comp = structure_ok(make_doc(QQ, 2, ("a",), COMPATIBLE_HOM_ASSOC, fams, twist=id2))
        tot = structure_ok(make_doc(QQ, 2, ("a",), TOTALLY_COMPATIBLE_HOM_ASSOC,
                                    fams, twist=id2))
        assert m == comp == tot


def test_verbose_mode_adds_no_spurious_failures():
    for name in ("aff2", "aff2-F2", "aff2-F3"):
        doc = catalog(name)
        assert check_structure(doc, verbose=True).passed


def test_dendriform_axiom3_toggle_discriminates():
    field = GF(3)
    rb = catalog("N2-id-wm1-F3")
    from halg import rb_to_dendriform, yau_twist
    hom = yau_twist(rb, LinearMap.from_rows(field, [[1, 0], [0, 2]]))
    den = rb_to_dendriform(hom)
    assert check_structure(den).passed
    bare = check_structure(den, axiom_toggles={DENDRIFORM_AXIOM3_TWIST: False})
    assert not bare.passed
    assert all(v.axiom == "dendriform-3" for v in bare.violations)
    with pytest.raises(ParamError):
        check_structure(den, axiom_toggles={"no-such-toggle": True})


# --- element-level oracle ---------------------------------------------------

def _omul(c, x, y):
    n = len(c)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] = (out[k] + x[i] * y[j] * c[i][j][k]) % 2
    return tuple(out)


def _oapp(rows, x):
    n = len(rows)
    return tuple(sum(rows[k][s] * x[s] for s in range(n)) % 2 for k in range(n))


def _oadd(*vs):
    return tuple(sum(col) % 2 for col in zip(*vs))


def _oscale(w, v):
    return tuple((w * x) % 2 for x in v)


def _oracle(doc):
    """Direct truth of doc's axioms over every element tuple of F_2^dim."""
    n = doc.dim
    V = [tuple((m >> s) & 1 for s in range(n)) for m in range(2 ** n)]
    labs = doc.labels
    p = doc.twist_map().rows if doc.kind not in PLAIN_RB_KINDS else \
        LinearMap.identity(doc.field, n).rows
    t = {role: {lab: fam.maps[lab].c for lab in labs}
         for role, fam in doc.families.items()}

    def P(x):
        return _oapp(p, x)

    kind = doc.kind
    pairs = [(a, b) for a in labs for b in labs]

    if kind in RB_KINDS:
        prod = t[KIND_ROLES[kind][0]][labs[0]]
        ops = {lab: doc.operators.ops[lab].rows for lab in labs}
        wts = {lab: doc.operators.weights[lab] for lab in labs}
        for x in V:
            for y in V:
                for z in V:
                    if kind in (HOM_ASSOC_MATCHING_RB, PLAIN_ASSOC_MATCHING_RB):
                        if _omul(prod, _omul(prod, x, y), P(z)) != \
                           _omul(prod, P(x), _omul(prod, y, z)):
                            return False
                    else:
                        s = _oadd(_omul(prod, P(x), _omul(prod, y, z)),
                                  _omul(prod, P(y), _omul(prod, z, x)),
                                  _omul(prod, P(z), _omul(prod, x, y)))
                        if any(s):
                            return False
        for a, b in pairs:
            Pa, Pb = ops[a], ops[b]
            for x in V:
                for y in V:
                    lhs = _omul(prod, _oapp(Pa, x), _oapp(Pb, y))
                    rhs = _oadd(_oapp(Pa, _omul(prod, x, _oapp(Pb, y))),
                                _oapp(Pb, _omul(prod, _oapp(Pa, x), y)),
                                _oscale(wts[b], _oapp(Pa, _omul(prod, x, y))))
                    if lhs != rhs:
                        return False
        return True

    for a, b in pairs:
        for x in V:
            for y in V:
                for z in V:
                    if not _oracle_triple(kind, t, a, b, P, x, y, z):
                        return False
    return True


def _oracle_triple(kind, t, a, b, P, x, y, z):
    if kind == MATCHING_HOM_ASSOC:
        d = t["dot"]
        return _omul(d[b], _omul(d[a], x, y), P(z)) == \
            _omul(d[a], P(x), _omul(d[b], y, z))
    if kind == TOTALLY_COMPATIBLE_HOM_ASSOC:
        d = t["dot"]
        return _omul(d[b], _omul(d[a], x, y), P(z)) == \
            _omul(d[b], P(x), _omul(d[a], y, z))
    if kind == COMPATIBLE_HOM_ASSOC:
        d = t["dot"]
        lhs = _oadd(_omul(d[b], _omul(d[a], x, y), P(z)),
                    _omul(d[a], _omul(d[b], x, y), P(z)))
        rhs = _oadd(_omul(d[a], P(x), _omul(d[b], y, z)),
                    _omul(d[b], P(x), _omul(d[a], y, z)))
        return lhs == rhs
    if kind == MATCHING_HOM_LIE:
        br = t["bracket"]
        s = _oadd(_omul(br[a], P(x), _omul(br[b], y, z)),
                  _omul(br[b], P(y), _omul(br[a], z, x)),
                  _omul(br[b], P(z), _omul(br[a], x, y)))
        return not any(s)
    if kind == COMPATIBLE_HOM_LIE:
        br = t["bracket"]
        s = _oadd(_omul(br[a], P(x), _omul(br[b], y, z)),
                  _omul(br[b], P(y), _omul(br[a], z, x)),
                  _omul(br[b], P(z), _omul(br[a], x, y)),
                  _omul(br[b], P(x), _omul(br[a], y, z)),
                  _omul(br[a], P(y), _omul(br[b], z, x)),
                  _omul(br[a], P(z), _omul(br[b], x, y)))
        return not any(s)
    if kind == MATCHING_HOM_PRELIE:
        st = t["star"]
        lhs = _oadd(_omul(st[a], P(x), _omul(st[b], y, z)),
                    _omul(st[b], _omul(st[a], x, y), P(z)))  # minus = plus mod 2
        rhs = _oadd(_omul(st[b], P(y), _omul(st[a], x, z)),
                    _omul(st[a], _omul(st[b], y, x), P(z)))
        return lhs == rhs
    if kind == MATCHING_HOM_DENDRIFORM:
        L, R = t["left"], t["right"]
        if _omul(L[b], _omul(L[a], x, y), P(z)) != \
           _oadd(_omul(L[a], P(x), _omul(L[b], y, z)),
                 _omul(L[b], P(x), _omul(R[a], y, z))):
            return False
        if _omul(L[b], _omul(R[a], x, y), P(z)) != \
           _omul(R[a], P(x), _omul(L[b], y, z)):
            return False
        lhs = _oadd(_omul(R[a], _omul(L[b], x, y), P(z)),
                    _omul(R[b], _omul(R[a], x, y), P(z)))
        return lhs == _omul(R[a], P(x), _omul(R[b], y, z))
    if kind == MATCHING_HOM_TRIDENDRIFORM:
        L, M, R = t["left"], t["middle"], t["right"]
        checks = [
            (_omul(L[b], _omul(L[a], x, y), P(z)),
             _oadd(_omul(L[a], P(x), _omul(L[b], y, z)),
                   _omul(L[b], P(x), _omul(R[a], y, z)),
                   _omul(L[a], P(x), _omul(M[b], y, z)))),
            (_omul(L[b], _omul(R[a], x, y), P(z)),
             _omul(R[a], P(x), _omul(L[b], y, z))),
            (_omul(R[a], P(x), _omul(R[b], y, z)),
             _oadd(_omul(R[a], _omul(L[b], x, y), P(z)),
                   _omul(R[b], _omul(R[a], x, y), P(z)),
                   _omul(R[a], _omul(M[b], x, y), P(z)))),
            (_omul(M[b], _omul(R[a], x, y), P(z)),
             _omul(R[a], P(x), _omul(M[b], y, z))),
            (_omul(M[b], _omul(L[a], x, y), P(z)),
             _omul(M[b], P(x), _omul(R[a], y, z))),
            (_omul(L[b], _omul(M[a], x, y), P(z)),
             _omul(M[a], P(x), _omul(L[b], y, z))),
            (_omul(M[b], _omul(M[a], x, y), P(z)),
             _omul(M[a], P(x), _omul(M[b], y, z))),
        ]
        return all(lhs == rhs for lhs, rhs in checks)
    raise AssertionError(f"oracle has no rule for {kind}")


def _random_doc(kind, dim, rng):
    field = GF(2)

    def rtensor():
        c = [[[rng.randrange(2) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
        return BilinearMap.from_nested(field, c)

    def rbracket():
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                row = [rng.randrange(2) for _ in range(dim)]
                c[i][j] = row
                c[j][i] = list(row)  # -1 = 1 mod 2
        return BilinearMap.from_nested(field, c)

    def rmap():
        return LinearMap.from_rows(
            field, [[rng.randrange(2) for _ in range(dim)] for _ in range(dim)])

    lie = kind in (MATCHING_HOM_LIE, COMPATIBLE_HOM_LIE, MATCHING_HOM_LIE_RB,
                   PLAIN_LIE_MATCHING_RB)
    make = rbracket if lie else rtensor
    if kind in RB_KINDS:
        families = {KIND_ROLES[kind][0]: make()}
        operators = OperatorFamily(ops={"a": rmap()},
                                   weights={"a": rng.randrange(2)})
        twist = None if kind in PLAIN_RB_KINDS else rmap()
        return make_doc(field, dim, ("a",), kind, families,
                        operators=operators, twist=twist)
    families = {role: {"a": make()} for role in KIND_ROLES[kind]}
    return make_doc(field, dim, ("a",), kind, families, twist=rmap())


def test_basis_checks_agree_with_element_oracle():
    rng = random.Random(2024)
    disagreements = []
    pass_seen = {kind: False for kind in KINDS}
    for kind in sorted(KINDS):
        for dim in (1, 2):
            for _ in range(24):
                doc = _random_doc(kind, dim, rng)
                engine = structure_ok(doc)
                truth = _oracle(doc)
                if engine != truth:
                    disagreements.append((kind, dim, doc))
                pass_seen[kind] |= engine
    assert not disagreements
    # the sample must exercise both verdicts: dim-1 zero tensors pass
    assert all(pass_seen.values())


# --- pinned report bytes ----------------------------------------------------

def _seeded_scalar(field, rng, density):
    if rng.random() >= density:
        return 0
    if field.is_prime_field:
        return rng.randrange(field.p)
    return rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))


def _seeded_map(field, dim, rng, density):
    return LinearMap.from_rows(field, [[_seeded_scalar(field, rng, density)
                                        for _ in range(dim)] for _ in range(dim)])


def _seeded_tensor(field, dim, rng, density, alternating):
    c = [[[_seeded_scalar(field, rng, density) for _ in range(dim)]
          for _ in range(dim)] for _ in range(dim)]
    if alternating:
        for i in range(dim):
            c[i][i] = [0] * dim
            for j in range(i):
                c[i][j] = [-v for v in c[j][i]]
    return BilinearMap.from_nested(field, c)


def _seeded_doc(field, kind, dim, labels, density, rng):
    decor = max(density, 0.4)
    lie = "bracket" in KIND_ROLES[kind]
    twist = (LinearMap.identity(field, dim) if rng.random() < 0.5
             else _seeded_map(field, dim, rng, decor))
    if kind in RB_KINDS:
        prod = _seeded_tensor(field, dim, rng, density, lie)
        ops = OperatorFamily(
            ops={lab: _seeded_map(field, dim, rng, decor) for lab in labels},
            weights={lab: _seeded_scalar(field, rng, 0.5) for lab in labels})
        if kind in PLAIN_RB_KINDS and rng.random() < 0.5:
            twist = None
        return make_doc(field, dim, labels, kind, {KIND_ROLES[kind][0]: prod},
                        operators=ops, twist=twist)
    families = {role: {lab: _seeded_tensor(field, dim, rng, density, lie)
                       for lab in labels}
                for role in KIND_ROLES[kind]}
    return make_doc(field, dim, labels, kind, families, twist=twist)


def _report_corpus():
    """(doc, morphism partner) pairs: seeded docs of every kind, field, dim
    and label count at three tensor densities, plus the catalog fixtures
    and what the splitting constructions make of them."""
    rng = random.Random(2002_04796)
    out = []
    for field in (GF(2), GF(3), QQ):
        for kind in KINDS:
            for dim in (1, 2, 3):
                for labels in (("a",), ("a", "b")):
                    group = [_seeded_doc(field, kind, dim, labels, density, rng)
                             for density in (0.0, 0.25, 0.7)]
                    out += [(d, group[i - 1]) for i, d in enumerate(group)]
    for doc in catalog().values():
        out.append((doc, doc))
        twist = _seeded_map(doc.field, doc.dim, rng, 0.6)
        for make in (lambda d: yau_twist(d, twist), rb_to_dendriform,
                     rb_to_tridendriform, rb_to_prelie,
                     lambda d: dendriform_sum(rb_to_dendriform(d))):
            try:
                made = make(doc)
            except HalgError:
                continue
            out.append((made, made))
    return out


REPORT_DIGEST = "ce28df7be139fe94770f26f6a9653a35048e12539a7befa330dba0dcbb252bda"


def test_report_bytes_are_pinned():
    """Every check's serialized report over a seeded corpus hashes to a
    pinned digest, so any change to a verdict, a witness or their order
    shows; every structure witness replays to its own sides (the verbose
    reports hold them all)."""
    digest = hashlib.sha256()
    passing = failing = 0

    def emit(tag, run, field):
        try:
            payload = report_to_jsonable(run(), field)
        except HalgError as e:
            payload = type(e).__name__
        digest.update(json.dumps([tag, payload], separators=(",", ":")).encode())
        digest.update(b"\n")

    rng = random.Random(4796)
    for n, (doc, partner) in enumerate(_report_corpus()):
        field = doc.field
        for verbose in (False, True):
            for toggle in (True, False):
                toggles = {DENDRIFORM_AXIOM3_TWIST: toggle}
                report = check_structure(doc, verbose=verbose, axiom_toggles=toggles)
                emit(["structure", n, verbose, toggle], lambda: report, field)
                for v in report.violations if verbose else ():
                    assert replay_violation(doc, v, toggles) == (v.lhs, v.rhs), v
                if not verbose and toggle:
                    assert structure_ok(doc, toggles) is report.passed
                    passing += report.passed
                    failing += not report.passed
        cand = _seeded_map(field, doc.dim, rng, 0.5)
        for candidate in (None, cand):
            for tag in SIDE_CONDITIONS:
                emit(["side", n, tag, candidate is None],
                     lambda: check_side_conditions(doc, [tag], candidate), field)
            emit(["side", n, "all", candidate is None],
                 lambda: check_side_conditions(doc, SIDE_CONDITIONS, candidate),
                 field)
        f = _seeded_map(field, doc.dim, rng, 0.5)
        emit(["morphism", n, "self"], lambda: check_morphism(f, doc, doc), field)
        emit(["morphism", n, "partner"],
             lambda: check_morphism(f, doc, partner), field)
    assert passing > 150 and failing > 150, (passing, failing)
    assert digest.hexdigest() == REPORT_DIGEST


def test_replay_refuses_witness_coordinates_outside_the_doc():
    doc = n2doc()
    for labels, basis in ((("zz", "a"), (0, 0, 0)), (("a",), (0, 0, 0)),
                          (("a", "a"), (0, 5, 0)), (("a", "a"), (0, 1))):
        foreign = Violation("matching-hom-assoc", labels, basis, (), ())
        with pytest.raises(ParamError):
            replay_violation(doc, foreign)


# --- the zero guard: an instance it skips has every side zero ------------------

def _guarded_sides(runs, frame, labels, dim):
    """((law, run), sides) at every instance where the guard of run, a
    runner of law, holds, with the sides evaluated raw; and the number of
    instances tried."""
    tried = 0
    held = []
    for law, run in runs:
        points = list(itertools.product(range(dim), repeat=law.arity))
        tuples = itertools.product(labels, repeat=len(law.labels))
        for _, _, guard, sides in run(frame, tuples, points, True, law.role):
            tried += 1
            if guard:
                held.append(((law, run), list(sides)))
    return held, tried


def _guard_corpus():
    """(doc, morphism partner, candidate map): seeded docs of every kind
    over F_2, F_3 and Q at dims 1 to 3 with one or two labels, sparse
    tensors, zero operator and twist columns, zero weights (half the seeded
    weights are 0), and the catalog fixtures."""
    rng = random.Random(1001)
    out = []
    for field in (GF(2), GF(3), QQ):
        for kind in KINDS:
            for dim in (1, 2, 3):
                for labels in (("a",), ("a", "b")):
                    group = [_seeded_doc(field, kind, dim, labels, density, rng)
                             for density in (0.0, 0.25, 0.6)]
                    out += [(d, group[i - 1], _seeded_map(field, dim, rng, 0.5))
                            for i, d in enumerate(group)]
    for doc in catalog().values():
        out.append((doc, doc, _seeded_map(doc.field, doc.dim, rng, 0.5)))
    return out


def test_the_zero_guard_holds_only_where_every_side_is_zero():
    """Every compiled structure law (all kinds, both dendriform readings,
    verbose on) and every map tag, at every instance over a seeded corpus:
    where the guard holds, lhs and every rhs are the zero vector.  Every
    law meets its guard somewhere, so none is compiled to never hold."""
    seen, held_by = set(), set()
    skipped = tried = 0
    for doc, partner, cand in _guard_corpus():
        frame = _frame(doc, cand.columns(), partner)
        runs = [(None, _structure_laws(doc.kind, twist3, True))
                for twist3 in (True, False)]
        for tag, (per_role, _) in _MAP_LAWS.items():
            if tag not in ("commutes", "operator-intertwine") or doc.operators is not None:
                runs += [(role, _map_laws(tag, role))
                         for role in (KIND_ROLES[doc.kind] if per_role else (None,))]
        for role, laws in runs:
            pairs = [(law, law.run) for law in laws]
            held, n = _guarded_sides(pairs, frame, doc.labels, doc.dim)
            seen.update(pairs)
            tried += n
            skipped += len(held)
            for pair, sides in held:
                held_by.add(pair)
                assert all(not any(side) for side in sides), (doc, pair[0].axiom, sides)
    assert seen == held_by, [law.axiom for law, _ in seen - held_by]
    assert 0 < skipped < tried, (skipped, tried)


def test_the_guard_skips_every_instance_on_zero_tensors():
    """A product through the zero tensor is the zero vector.  On docs whose
    every tensor is zero, over F_2, F_3 and Q at dims 1 to 3 with one or
    two labels, and whose operators, twists and weights stay seeded, the
    guard of every structure law (all kinds, both dendriform readings,
    verbose on) and of every map tag checked per role (the tags whose laws
    multiply through a tensor) holds at every instance, padded terms
    included."""
    rng = random.Random(2503)
    tried, dense = 0, 0
    for field in (GF(2), GF(3), QQ):
        for kind in KINDS:
            for dim in (1, 2, 3):
                for labels in (("a",), ("a", "b")):
                    doc, partner = (_seeded_doc(field, kind, dim, labels, 0.0, rng)
                                    for _ in range(2))
                    dense += doc.operators is not None and any(
                        any(map(any, op.rows)) for op in doc.operators.ops.values())
                    frame = _frame(doc, _seeded_map(field, dim, rng, 0.6).columns(),
                                   partner)
                    runs = [(None, _structure_laws(kind, twist3, True))
                            for twist3 in (True, False)]
                    runs += [(role, _map_laws(tag, role))
                             for tag, (per_role, _) in _MAP_LAWS.items() if per_role
                             for role in KIND_ROLES[kind]]
                    for role, laws in runs:
                        for law in laws:
                            tuples = itertools.product(labels, repeat=len(law.labels))
                            for labs, ix, held, _ in law.run(frame, tuples,
                                                             _points(dim, law.arity),
                                                             True, law.role):
                                tried += 1
                                assert held, (doc, law.axiom, labs, ix)
    assert dense > 20 and tried > 10000, (dense, tried)


def test_a_zero_product_check_calls_no_kernel(monkeypatch):
    """The zero-tensor flag is bound once per runner call, not tested per
    instance: checking a plain-assoc RB doc with the zero product, dense
    operators and nonzero weights calls neither mul nor app, while the same
    operators on the N2 product do."""
    field = GF(3)
    ops = OperatorFamily({"a": LinearMap.from_rows(field, [[1, 2], [2, 1]]),
                          "b": LinearMap.from_rows(field, [[2, 1], [1, 1]])},
                         {"a": 1, "b": 2})
    calls = []
    for law in _structure_laws(PLAIN_ASSOC_MATCHING_RB, True, False):
        scope = law.run.__globals__
        for name in ("mul", "app"):
            monkeypatch.setitem(scope, name, lambda *a, k=scope[name], n=name:
                                calls.append(n) or k(*a))

    def check(product):
        calls.clear()
        doc = make_doc(field, 2, ("a", "b"), PLAIN_ASSOC_MATCHING_RB,
                       {"dot": BilinearMap.from_nested(field, product)}, operators=ops)
        return check_structure(doc)
    assert check([[[0, 0], [0, 0]], [[0, 0], [0, 0]]]).passed and calls == []
    check(N2)
    assert {"mul", "app"} <= set(calls)


def _rows():
    """Every distinct row of both law tables, the fill rows left out."""
    return [law for law in rows() if law.axiom != "fill"]


def test_the_runners_text_stays_small():
    """Every process imports the runners, so their text is kept small:
    summed over every distinct row of both law tables, each term padded to
    the law's degree as its generated runner has it, it stays under a
    ceiling about 10% above the 21,141 characters the 32 rows take now.
    The whole generated module, with the fill rows, RUNNERS and its
    header, stays under a ceiling about 10% above its 35,252 characters."""
    total = 0
    for law in _rows():
        arity, _, padded, _ = facts(law)
        total += len(_runner_source(law.labels, arity, padded))
    assert len(_rows()) == 32
    assert total <= 23000, total
    size = len(Path(halg._runners.__file__).read_text())
    assert size <= 39000, size


def test_each_law_runs_its_sides_padded_to_its_degree():
    """Every row has one runner, whose terms are brought to the law's
    degree K by powers of D; the rows with a term below K are exactly these
    four.  With D bound to 1, each law's runner (all kinds, both dendriform
    readings, verbose on, every map tag) yields at every instance over the
    zero-guard corpus the sides of a reference runner compiled from the
    law's sides as written."""
    def below(law):
        degrees = [_degree(t) for side in _sides(law) for t in side]
        return min(degrees) < max(degrees)
    assert {(law.axiom, law.when) for law in _rows() if below(law)} == {
        ("endomorphism", None), ("multiplicative", None), ("morphism-{role}", None),
        ("dendriform-3", "!" + DENDRIFORM_AXIOM3_TWIST)}

    reference = {}
    for law in _rows():
        # the generated module's globals bind the kernels a runner calls
        scope = dict(vars(halg._runners))
        exec(_runner_source(law.labels, facts(law)[0], _sides(law)), scope)
        reference[law] = scope["run"]
    compared = set()
    for doc, partner, cand in _guard_corpus():
        frame = _frame(doc, cand.columns(), partner)
        frame["D"] = 1
        laws = [law for twist3 in (True, False)
                for law in _structure_laws(doc.kind, twist3, True)]
        for tag, (per_role, _) in _MAP_LAWS.items():
            if tag not in ("commutes", "operator-intertwine") or doc.operators is not None:
                laws += [law for role in (KIND_ROLES[doc.kind] if per_role else (None,))
                         for law in _map_laws(tag, role)]
        for law in laws:
            compared.add(law.law)
            points = _points(doc.dim, law.arity)
            tuples = list(itertools.product(doc.labels, repeat=len(law.labels)))
            runs = (law.run(frame, tuples, points, True, law.role),
                    reference[law.law](frame, tuples, points, True, law.role))
            for (labs, ix, _, sides), (*_, expected) in zip(*runs, strict=True):
                assert sides == expected, (doc, law.axiom, labs, ix)
    assert compared == set(_rows()), set(_rows()) - compared


def test_the_generated_runners_are_the_rows_regenerated(tmp_path):
    """halg._runners is what halg._codegen generates from the rows today,
    byte for byte, so a row edited without regenerating fails here; the
    generator's --check reports a stale file with exit 1 and rewriting
    mends it.  It keys every row of both law tables and of the fill
    table."""
    target = Path(halg._runners.__file__)
    assert target.read_text() == source()
    assert main(["--check"], target) == 0
    stale = tmp_path / "_runners.py"
    stale.write_text(source().replace("s0 != s1", "s0 == s1", 1))
    assert main(["--check"], stale) == 1
    assert main([], stale) == 0 and stale.read_text() == source()
    assert main(["--check"], stale) == 0
    assert list(halg._runners.RUNNERS) == rows()
    assert len(rows()) == 32 + len(_FILLS)


_RUNNERS_PROBE = """
import builtins
import sys
from fractions import Fraction

from halg import (QQ, SIDE_CONDITIONS, HalgError, LinearMap, SearchSpec,
                  catalog, check_morphism, check_side_conditions,
                  check_structure, commutator, enumerate_docs,
                  rb_to_dendriform, verify_diagram)
from halg.axioms import DENDRIFORM_AXIOM3_TWIST
from halg.cli import _RECIPES, _run_recipe

calls = []


def spy(real):
    def call(*args, **kwargs):
        calls.append((real.__name__, sys._getframe(1).f_globals.get("__name__")))
        return real(*args, **kwargs)
    return call


builtins.exec, builtins.compile = spy(builtins.exec), spy(builtins.compile)


def battery(suffix, half):
    base = catalog("N2-Pnil-w0" + suffix)
    for name in ("N2", "aff2", "N2-Pnil-w0", "N2-id-wm1"):
        check_structure(catalog(name + suffix), verbose=True)
    dendriform = rb_to_dendriform(base)
    for reading in (True, False):
        check_structure(dendriform, axiom_toggles={DENDRIFORM_AXIOM3_TWIST: reading})
    half = LinearMap.from_rows(base.field, [[half, 0], [0, 0]])
    check_side_conditions(base, list(SIDE_CONDITIONS), candidate=half)
    check_morphism(half, base, base)
    commutator(base)


# the params each recipe reads, beside the doc
PARAMS = {"yau-twist": ("twist",), "derived": ("n",), "centroid-twist": ("twist",),
          "collapse": ("coeffs",), "dendriform-twist": ("twist",)}


def recipes(docs):
    # every recipe on every doc, with the identity for a twist; the outputs
    made = []
    for doc in docs:
        values = {"twist": [[int(i == j) for j in range(doc.dim)] for i in range(doc.dim)],
                  "n": 1, "coeffs": {lab: 1 for lab in doc.labels}}
        for recipe in _RECIPES:
            try:
                made.append(_run_recipe(recipe, doc, {key: values[key]
                                                      for key in PARAMS.get(recipe, ())}))
            except HalgError:
                pass
    return made


battery("-F3", 2)
battery("", Fraction(1, 2))
recipes(recipes(catalog().values()))
verify_diagram(catalog("N2-Pnil-w0"))
enumerate_docs(SearchSpec(catalog("N2-Pnil-w0-F3"), "endomorphism"))
print([name for name in ("halg._codegen", "dataclasses", "inspect") if name in sys.modules],
      calls)
"""


def test_no_halg_process_compiles_a_law():
    """In a fresh process, checks of the same laws over F_3 and over Q
    (where the candidate's 1/2 makes D = 2 on the frames that bind it),
    every construction recipe on the catalog and on its outputs, the
    diagram and a search run without halg._codegen, dataclasses or inspect
    imported and without one call of exec or compile: each runner is
    imported with halg._runners.  And no runtime module names exec, compile
    or ast."""
    src = os.path.dirname(os.path.dirname(halg.axioms.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _RUNNERS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout == "[] []\n", out
    for path in sorted(Path(src, "halg").glob("*.py")):
        if path.name == "_codegen.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {alias.name for node in nodes
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not names & {"exec", "compile", "eval", "ast"}, path.name


def _run_at(laws, frame, doc, tuples=None, points=None):
    """The violations that each law's runner, as _plan resolves it, yields
    when given tuples (those of its label count) and points in place of
    every label tuple and basis tuple, in the full check's order."""
    out = []
    for entry in _plan(laws, frame, doc.labels, doc.field):
        labs = None if tuples is None else [t for t in tuples
                                            if len(t) == len(entry[0].labels)]
        out += _violations((entry,), frame, points, labs)
    return out


def test_the_runners_label_and_point_filters_restrict_the_full_check():
    """Over seeded one- and two-label docs of every kind over F_2, F_3 and
    Q, under both dendriform readings: tuples= the pairs of distinct
    labels yields exactly the full check's violations at label tuples of
    distinct labels, and points= exactly those at the given basis tuples,
    each in the full check's order."""
    rng = random.Random(1808)
    mixed_seen = pointed_seen = 0
    for field in (GF(2), GF(3), QQ):
        for kind in KINDS:
            for labels in (("a",), ("a", "b")):
                doc = _seeded_doc(field, kind, 2, labels, 0.6, rng)
                for twist3 in (True, False):
                    laws, frame = _laws_for(doc, {DENDRIFORM_AXIOM3_TWIST: twist3}, True)
                    full = list(_violations(_plan(laws, frame, doc.labels, field), frame))
                    mixed = [v for v in full if len(set(v.labels)) > 1]
                    distinct = [t for t in itertools.product(doc.labels, repeat=2)
                                if t[0] != t[1]]
                    assert _run_at(laws, frame, doc, tuples=distinct) == mixed
                    mixed_seen += len(mixed)
                    for arity in {law.arity for law in laws}:
                        same = [law for law in laws if law.arity == arity]
                        points = [ix for ix in itertools.product(range(2), repeat=arity)
                                  if rng.random() < 0.5]
                        plan = _plan(same, frame, doc.labels, field)
                        pointed = [v for v in _violations(plan, frame) if v.basis in points]
                        assert _run_at(same, frame, doc, points=points) == pointed
                        pointed_seen += len(pointed)
    assert mixed_seen > 50 and pointed_seen > 50, (mixed_seen, pointed_seen)


def test_one_loop_runs_every_check():
    """In axioms.py a runner is called in check mode (every False) only by
    _violations, which every report and every verdict reads, and in the
    mode that yields every instance only by replay_violation and fill."""
    tree = ast.parse(inspect.getsource(halg.axioms))

    def runs(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == "run"]
    seen = sorted((fn.name, ast.literal_eval(call.args[3]))
                  for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  for call in runs(fn))
    assert len(seen) == len(runs(tree))
    assert seen == [("_violations", False), ("fill", True), ("replay_violation", True)]


def _bound(v):
    """Every value bound in v, a frame or a map bound in it."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, (list, tuple)):
        return [x for item in v for x in _bound(item)]
    return [v]


def test_a_frame_over_q_binds_only_ints():
    """Over Q a frame binds every tensor, sparse form, twist, operator
    column, weight and candidate map as ints, times one common denominator
    D that the pair of docs and the candidate share, so no Fraction enters
    the evaluator; over F_p every frame binds D = 1."""
    scaled = 0
    for doc, partner, cand in _guard_corpus():
        laws, frame = _laws_for(doc, None, True)
        list(_violations(_plan(laws, frame, doc.labels, doc.field), frame))
        frame2 = target = _frame(doc, cand.columns(), partner)
        sparse = [frame2[role + s + "~"] for s in ("", "2") for role in KIND_ROLES[doc.kind]]
        d, d2 = frame["D"], frame2["D"]
        if doc.field.is_prime_field:
            assert d == d2 == target["D"] == 1
            continue
        assert d2 == target["D"] and d2 % d == 0 and d >= 1
        for f in (frame, frame2, target, sparse):
            assert all(type(x) is int for x in _bound(f)), doc
        scaled += d > 1
    assert scaled >= 50, scaled


def test_a_construction_frame_over_q_binds_its_fill_map_as_ints(monkeypatch):
    """untwist fills with the inverse of its twist and derived_algebra with
    a power of it.  Each binds that map as g beside f on the one frame of
    its input, so D covers g's denominators too, and that frame holds ints
    only.  The outputs are the exact ones: untwist gives back the plain doc,
    and variant 2 at level 2 composes the product with p^3 and twists by
    p^4."""
    import halg.constructions
    from halg import derived_algebra, serialize_doc, untwist
    frames = []
    real = halg.constructions._frame
    monkeypatch.setattr(halg.constructions, "_frame",
                        lambda *args: frames.append(real(*args)) or frames[-1])
    base = catalog("N2-id-wm1")
    for t, entry in ((2, "16"), (Fraction(1, 2), '"1/16"')):
        hom = yau_twist(base, LinearMap.from_rows(QQ, [[1, 0], [0, t]]))
        assert serialize_doc(untwist(hom)) == serialize_doc(base)
        assert serialize_doc(derived_algebra(hom, 2, 2)) == (
            '{"format-version":"1","kind":"hom-assoc-matching-rb",'
            '"field":{"kind":"rationals"},"dim":2,"omega":["a"],'
            f'"families":{{"dot":[[[1,0],[0,{entry}]],[[0,{entry}],[0,0]]]}},'
            '"operators":{"ops":{"a":[[1,0],[0,1]]},"weights":{"a":-1}},'
            f'"twist":[[1,0],[0,{entry}]]}}').encode()
    # yau_twist, untwist and derived_algebra, twice: one frame of its input each
    assert len(frames) == 6
    for frame in frames:
        assert all(type(x) is int for x in _bound(frame)), sorted(frame)
    # over diag(1, 2) only g = diag(1, 1/2) has a denominator; over
    # diag(1, 1/2), g = p^3 = diag(1, 1/8) has the largest
    assert "g" in frames[1] and frames[1]["D"] == 2
    assert "g" in frames[5] and frames[5]["D"] == 8


def test_no_role_is_bound_on_a_frame(monkeypatch):
    """The role under check is its runner's argument, so once _frame has
    returned a frame, the only names set on it are sparse forms ("~") and
    the searched map (f, or P in the operator search).  On an rb doc and on
    the tridendriform doc it splits into, over Q and F_3: per-role side
    conditions, a morphism check, a comparison, yau_twist and
    dendriform_twist (each refusing the other kind), and over F_3 a
    candidate_check decision."""
    import halg.constructions
    from halg import dendriform_twist
    from halg.axioms import candidate_check, first_difference
    from halg.errors import PreconditionFailed
    real, dict_set, bound = halg.axioms._frame, halg.axioms._Frame.__setitem__, []

    def frame(*args, **kwargs):
        out = real(*args, **kwargs)
        out.returned = True
        return out

    def setitem(frame, key, value):
        if getattr(frame, "returned", False):
            bound.append(key)
        dict_set(frame, key, value)
    monkeypatch.setattr(halg.axioms, "_frame", frame)
    monkeypatch.setattr(halg.constructions, "_frame", frame)
    monkeypatch.setattr(halg.axioms._Frame, "__setitem__", setitem)
    for name in ("N2-Pnil-w0", "N2-Pnil-w0-F3"):
        rb = catalog(name)
        for doc in (rb, rb_to_tridendriform(rb)):
            one = LinearMap.identity(doc.field, doc.dim)
            assert check_side_conditions(doc, ["endomorphism", "centroid"]).passed
            assert check_morphism(one, doc, doc).passed
            assert first_difference(doc, doc) is None
            rb_kind = doc.kind in RB_KINDS
            for construct, takes in ((yau_twist, rb_kind), (dendriform_twist, not rb_kind)):
                if takes:
                    assert construct(doc, one).kind == doc.kind.replace("plain", "hom")
                else:
                    with pytest.raises(PreconditionFailed):
                        construct(doc, one)
            if doc.field.is_prime_field:
                assert candidate_check(doc, "endomorphism")(one.columns())
    assert "f" in bound and any(key.endswith("~") for key in bound), bound
    assert all(key.endswith("~") or key in ("f", "P") for key in bound), bound


def test_linear_system_refuses_a_law_with_several_right_hand_sides():
    # centroid reads f(xy) = f(x)y = xf(y) on a product that is not
    # alternating: two right-hand sides would share one row key
    from halg import commutator
    from halg.axioms import linear_system
    rb = catalog("N2-Pnil-w0-F3")
    with pytest.raises(ParamError, match="several right-hand sides"):
        linear_system(rb, "centroid")
    assert linear_system(rb, "commutes")
    # on a bracket, centroid has one right-hand side and is one system
    assert linear_system(commutator(rb), "centroid") is not None


def test_linear_system_refuses_a_tag_that_is_not_a_one_doc_map_law():
    from halg.axioms import linear_system
    rb = catalog("N2-Pnil-w0-F3")
    for tag in ("morphism", "diagram", "twist-intertwine", "operator-intertwine",
                "invertible", "nope"):
        with pytest.raises(ParamError, match="side condition with a map law"):
            linear_system(rb, tag)
    # m.a(f(X), f(Y)) applies f twice: quadratic in f, not a linear system
    for tag in ("endomorphism", "multiplicative"):
        with pytest.raises(ParamError, match="apply f exactly once"):
            linear_system(rb, tag)
    with pytest.raises(ShapeError, match="operator family"):
        linear_system(catalog("N2-F3"), "commutes")
    with pytest.raises(ParamError, match="doc"):
        linear_system(5, "commutes")


# --- an independent oracle over Q -------------------------------------------
#
# Each structure law written out again with plain Fraction arithmetic on
# coefficient vectors, evaluated at every instance with nothing skipped, and
# its failures listed in (law, labels, basis) order.

def _qmul(c, x, y):
    out = [Fraction(0)] * len(c)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, v in enumerate(c[i][j]):
                    out[k] += xi * yj * v
    return out


def _qapp(rows, x):
    return [sum((rows[k][j] * x[j] for j in range(len(x))), Fraction(0))
            for k in range(len(x))]


def _qadd(*vs):
    return [sum(col, Fraction(0)) for col in zip(*vs)]


def _qneg(v):
    return [-x for x in v]


def _qcanon(v):
    return tuple(int(x) if x.denominator == 1 else x for x in v)


def _q_laws(doc, twist3, verbose):
    """[(axiom, label count, arity, sides)], sides(labels, vectors) being
    the (lhs, rhs) vectors of one instance, in the paper's formulas."""
    kind, labels = doc.kind, doc.labels
    t = {role: {lab: fam.maps[lab].c for lab in labels}
         for role, fam in doc.families.items()}
    rows = doc.twist_map().rows

    def p(x):
        return x if kind in PLAIN_RB_KINDS else _qapp(rows, x)

    if kind in RB_KINDS:
        c = t[KIND_ROLES[kind][0]][labels[0]]

        def m(x, y):
            return _qmul(c, x, y)

        def P(a, x):
            return _qapp(doc.operators.ops[a].rows, x)
        w = doc.operators.weights

        def single(_, v):
            x, y, z = v
            if "bracket" in KIND_ROLES[kind]:
                return (_qadd(m(p(x), m(y, z)), m(p(y), m(z, x)), m(p(z), m(x, y))),
                        [0] * len(x))
            return m(m(x, y), p(z)), m(p(x), m(y, z))

        def matching_rb(ab, v):
            (a, b), (x, y) = ab, v
            return (m(P(a, x), P(b, y)),
                    _qadd(P(a, m(x, P(b, y))), P(b, m(P(a, x), y)),
                          [w[b] * s for s in P(a, m(x, y))]))
        axiom = "hom-jacobi" if "bracket" in KIND_ROLES[kind] else "hom-assoc"
        return [(axiom, 0, 3, single), ("matching-rb", 2, 2, matching_rb)]

    def on(role, lab):
        return lambda x, y: _qmul(t[role][lab], x, y)

    def law(axiom, sides):
        def run(ab, v):
            a, b = ab
            x, y, z = v
            return sides(a, b, x, y, z)
        return (axiom, 2, 3, run)

    if kind in (MATCHING_HOM_ASSOC, TOTALLY_COMPATIBLE_HOM_ASSOC, COMPATIBLE_HOM_ASSOC):
        def d(lab):
            return on("dot", lab)
        return [{
            MATCHING_HOM_ASSOC: law("matching-hom-assoc", lambda a, b, x, y, z: (
                d(b)(d(a)(x, y), p(z)), d(a)(p(x), d(b)(y, z)))),
            TOTALLY_COMPATIBLE_HOM_ASSOC: law("totally-compatible-hom-assoc",
                                              lambda a, b, x, y, z: (
                d(b)(d(a)(x, y), p(z)), d(b)(p(x), d(a)(y, z)))),
            COMPATIBLE_HOM_ASSOC: law("compatible-hom-assoc", lambda a, b, x, y, z: (
                _qadd(d(b)(d(a)(x, y), p(z)), d(a)(d(b)(x, y), p(z))),
                _qadd(d(a)(p(x), d(b)(y, z)), d(b)(p(x), d(a)(y, z)))))}[kind]]
    if kind in (MATCHING_HOM_LIE, COMPATIBLE_HOM_LIE):
        def br(lab):
            return on("bracket", lab)

        def jacobi(a, b, x, y, z):
            return _qadd(br(a)(p(x), br(b)(y, z)), br(b)(p(y), br(a)(z, x)),
                         br(b)(p(z), br(a)(x, y)))
        if kind == COMPATIBLE_HOM_LIE:
            return [law("compatible-hom-jacobi", lambda a, b, x, y, z: (
                _qadd(jacobi(b, a, x, y, z), jacobi(a, b, x, y, z)), [0] * len(x)))]
        laws = [law("matching-hom-jacobi",
                    lambda a, b, x, y, z: (jacobi(a, b, x, y, z), [0] * len(x)))]
        if verbose:
            laws.append(law("mhl-symmetry", lambda a, b, x, y, z: (
                br(b)(p(x), br(a)(y, z)), br(a)(p(x), br(b)(y, z)))))
        return laws
    if kind == MATCHING_HOM_PRELIE:
        def st(lab):
            return on("star", lab)
        return [law("matching-hom-prelie", lambda a, b, x, y, z: (
            _qadd(st(a)(p(x), st(b)(y, z)), _qneg(st(b)(st(a)(x, y), p(z)))),
            _qadd(st(b)(p(y), st(a)(x, z)), _qneg(st(a)(st(b)(y, x), p(z))))))]

    def L(lab):
        return on("left", lab)

    def R(lab):
        return on("right", lab)

    if kind == MATCHING_HOM_DENDRIFORM:
        return [
            law("dendriform-1", lambda a, b, x, y, z: (
                L(b)(L(a)(x, y), p(z)), _qadd(L(a)(p(x), L(b)(y, z)), L(b)(p(x), R(a)(y, z))))),
            law("dendriform-2", lambda a, b, x, y, z: (
                L(b)(R(a)(x, y), p(z)), R(a)(p(x), L(b)(y, z)))),
            law("dendriform-3", lambda a, b, x, y, z: (
                _qadd(R(a)(L(b)(x, y), p(z)), R(b)(R(a)(x, y), p(z))),
                R(a)(p(x) if twist3 else x, R(b)(y, z))))]

    def M(lab):
        return on("middle", lab)
    return [
        law("tridendriform-1", lambda a, b, x, y, z: (
            L(b)(L(a)(x, y), p(z)),
            _qadd(L(a)(p(x), L(b)(y, z)), L(b)(p(x), R(a)(y, z)), L(a)(p(x), M(b)(y, z))))),
        law("tridendriform-2", lambda a, b, x, y, z: (
            L(b)(R(a)(x, y), p(z)), R(a)(p(x), L(b)(y, z)))),
        law("tridendriform-3", lambda a, b, x, y, z: (
            R(a)(p(x), R(b)(y, z)),
            _qadd(R(a)(L(b)(x, y), p(z)), R(b)(R(a)(x, y), p(z)), R(a)(M(b)(x, y), p(z))))),
        law("tridendriform-4", lambda a, b, x, y, z: (
            M(b)(R(a)(x, y), p(z)), R(a)(p(x), M(b)(y, z)))),
        law("tridendriform-5", lambda a, b, x, y, z: (
            M(b)(L(a)(x, y), p(z)), M(b)(p(x), R(a)(y, z)))),
        law("tridendriform-6", lambda a, b, x, y, z: (
            L(b)(M(a)(x, y), p(z)), M(a)(p(x), L(b)(y, z)))),
        law("tridendriform-7", lambda a, b, x, y, z: (
            M(b)(M(a)(x, y), p(z)), M(a)(p(x), M(b)(y, z))))]


def _q_violations(doc, twist3, verbose):
    dim = doc.dim
    vectors = [[Fraction(int(i == k)) for k in range(dim)] for i in range(dim)]
    out = []
    for axiom, n_labels, arity, sides in _q_laws(doc, twist3, verbose):
        for labs in itertools.product(doc.labels, repeat=n_labels):
            for ix in itertools.product(range(dim), repeat=arity):
                lhs, rhs = map(_qcanon, sides(labs, [vectors[i] for i in ix]))
                if lhs != rhs:
                    out.append(Violation(axiom, labs, ix, lhs, rhs))
    return out


def _q_conjugated(doc, g, scales):
    """g.doc on the labels of scales, every map and weight of the label
    lab times scales[lab] (the structure laws are bilinear in the maps of
    their two label variables), in Fraction arithmetic of its own."""
    n, ginv, first = doc.dim, map_invert(g).rows, doc.labels[0]
    e = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    back = [_qapp(ginv, v) for v in e]

    def tensor(c, s):
        return BilinearMap.from_nested(QQ, [[[s * v for v in _qapp(g.rows, _qmul(c, bi, bj))]
                                             for bj in back] for bi in back])

    def lin(f, s=1):
        cols = [_qapp(g.rows, _qapp(f.rows, b)) for b in back]
        return LinearMap.from_rows(QQ, [[s * cols[j][i] for j in range(n)]
                                        for i in range(n)])
    labels = tuple(scales)
    twist = None if doc.twist is None else lin(doc.twist)
    if doc.kind in RB_KINDS:
        ops = OperatorFamily({lab: lin(doc.operators.ops[first], s) for lab, s in scales.items()},
                             {lab: QQ.reduce(Fraction(s) * doc.operators.weights[first])
                              for lab, s in scales.items()})
        role = KIND_ROLES[doc.kind][0]
        return make_doc(QQ, n, labels, doc.kind,
                        {role: tensor(doc.families[role].maps[first].c, 1)},
                        operators=ops, twist=twist)
    return make_doc(QQ, n, labels, doc.kind,
                    {role: {lab: tensor(fam.maps[first].c, s) for lab, s in scales.items()}
                     for role, fam in doc.families.items()}, twist=twist)


def _perturbed(doc, rng):
    """doc with 1/3 added to one seeded structure constant of its first
    role at its first label (and -1/3 to its mirror in a bracket), or None
    for a bracket on a line, which is zero."""
    role, lab = KIND_ROLES[doc.kind][0], doc.labels[0]
    c = [[list(row) for row in plane] for plane in doc.families[role].maps[lab].c]
    i, j, k = (rng.randrange(doc.dim) for _ in range(3))
    if role == "bracket":
        if doc.dim < 2:
            return None
        i, j = rng.sample(range(doc.dim), 2)
        c[j][i][k] -= Fraction(1, 3)
    c[i][j][k] += Fraction(1, 3)
    families = {r: {lb: fam.maps[lb] for lb in doc.labels} for r, fam in doc.families.items()}
    families[role][lab] = BilinearMap.from_nested(QQ, c)
    if doc.kind in RB_KINDS:
        families = {r: fam[lab] for r, fam in families.items()}
    return make_doc(QQ, doc.dim, doc.labels, doc.kind, families,
                    operators=doc.operators, twist=doc.twist)


def _q_oracle_corpus():
    """Q docs of every kind: seeded ones at dims 1 to 3 with one and two
    labels (fractional constants, twists, operators and weights), and docs
    that pass, built from the catalog, the triangular matrices with the
    Rota-Baxter operator -w id at w = 2/3, and constructions on them, each
    conjugated by a seeded map with fractional entries onto two labels whose
    maps are scaled copies; and a perturbed copy of each of those."""
    rng = random.Random(7_2024)
    docs = [_seeded_doc(QQ, kind, dim, labels, rng.choice((0.2, 0.5)), rng)
            for kind in KINDS for dim in (1, 2, 3) for labels in (("a",), ("a", "b"))]
    tri = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    tri[0][0][0] = tri[0][1][1] = tri[1][2][1] = tri[2][2][2] = 1
    w = Fraction(2, 3)
    ut = make_doc(QQ, 3, ("a",), PLAIN_ASSOC_MATCHING_RB,
                  {"dot": BilinearMap.from_nested(QQ, tri)},
                  operators=OperatorFamily(
                      {"a": LinearMap.from_rows(QQ, [[-w * int(i == j) for j in range(3)]
                                                     for i in range(3)])}, {"a": w}))
    half = Fraction(1, 2)
    built = [catalog(name) for name in ("Z2", "D1", "N2", "aff2", "N2-Pnil-w0")]
    for rb, twist in ((catalog("N2-id-wm1"), [[1, 0], [0, half]]),
                      (ut, [[1, 0, 0], [0, half, 0], [0, 0, 1]])):
        hom = yau_twist(rb, LinearMap.from_rows(QQ, twist))
        dend, prelie = rb_to_dendriform(hom), rb_to_prelie(hom)
        product = make_doc(QQ, hom.dim, ("a",), MATCHING_HOM_ASSOC,
                           {"dot": {"a": hom.product()}}, twist=hom.twist)
        built += [rb, hom, commutator(rb), commutator(hom), dend,
                  rb_to_tridendriform(hom), prelie, dendriform_sum(dend),
                  prelie_commutator(prelie), product, commutator(product),
                  make_doc(QQ, hom.dim, ("a",), TOTALLY_COMPATIBLE_HOM_ASSOC,
                           product.families, twist=hom.twist)]
    assert {d.kind for d in built} == set(KINDS)
    for doc in built:
        while True:
            g = _seeded_map(QQ, doc.dim, rng, 0.8)
            if kernel_vector(g) is None:
                break
        made = _q_conjugated(doc, g, {"a": Fraction(-3, 2), "b": 2})
        assert structure_ok(made), doc.kind
        docs += [made, _perturbed(made, rng)]
    return [doc for doc in docs if doc is not None]


def test_basis_checks_over_q_agree_with_a_fraction_oracle():
    """check_structure's full violation list, verbose and under both
    dendriform readings, equals the oracle's on every doc of the corpus,
    and every witness replays to its own sides."""
    failing = fractional = 0
    for doc in _q_oracle_corpus():
        fractional += any(x.denominator != 1 for x in _frame_scalars(doc))
        for twist3 in (True, False):
            toggles = {DENDRIFORM_AXIOM3_TWIST: twist3}
            # the reading changes the laws of the dendriform kind alone
            if twist3 or doc.kind == MATCHING_HOM_DENDRIFORM:
                expected = _q_violations(doc, twist3, True)
            report = check_structure(doc, verbose=True, axiom_toggles=toggles)
            assert list(report.violations) == expected, (doc.kind, doc.dim, doc.labels)
            assert [v for v in check_structure(doc, axiom_toggles=toggles).violations] \
                == [v for v in expected if v.axiom != "mhl-symmetry"]
            for v in report.violations:
                assert replay_violation(doc, v, toggles) == (v.lhs, v.rhs), v
        failing += bool(expected)
    assert failing >= 60 and fractional >= 100, (failing, fractional)


def _frame_scalars(doc):
    """Every scalar of doc's tensors, twist, operators and weights."""
    out = [x for fam in doc.families.values() for lab in doc.labels
           for plane in fam.maps[lab].c for row in plane for x in row]
    out += [x for row in doc.twist_map().rows for x in row]
    if doc.operators is not None:
        out += [x for lab in doc.labels for row in doc.operators.ops[lab].rows for x in row]
        out += list(doc.operators.weights.values())
    return [Fraction(x) for x in out]
