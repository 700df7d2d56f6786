"""Identity checking: frozen witnesses, side conditions, morphisms, and the
basis-vs-element completeness property.

The element-level oracle at the bottom re-evaluates every identity over ALL
carrier elements of F_2^n with its own non-skipping arithmetic; agreement
with the basis-triple engine is what multilinearity promises.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from halg import (GF, QQ, SIDE_CONDITIONS, BilinearMap, DimensionMismatch,
                  HalgError, KindMismatch, LinearMap, OperatorFamily,
                  ParamError, ShapeError, UnknownConditionError, Violation,
                  catalog, check_morphism, check_side_conditions,
                  check_structure, dendriform_sum, make_doc, rb_to_dendriform,
                  rb_to_prelie, rb_to_tridendriform, replay_violation,
                  report_to_jsonable, structure_ok, yau_twist)
from halg.axioms import (_MAP_LAWS, DENDRIFORM_AXIOM3_TWIST, _basis, _frame,
                         _map_laws, _structure_laws)
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

def _guarded_sides(laws, frame, labels, dim):
    """(law, sides) at every instance where the law's guard holds, with the
    sides evaluated raw; and the number of instances tried."""
    basis = _basis(dim)
    tried = 0
    held = []
    for law in laws:
        for labs in itertools.product(labels, repeat=len(law.labels)):
            maps = law.bind(frame, labs)
            for ix in itertools.product(range(dim), repeat=law.arity):
                tried += 1
                if law.zero(maps, basis, ix):
                    held.append((law, [law.lhs(maps, basis, ix)]
                                 + [rhs(maps, basis, ix) for rhs in law.rhs]))
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
        frame, target = _frame(doc), _frame(partner)
        frame.update({"f": cand.columns(), "p2": target["p"]})
        if doc.operators is not None:
            frame["P2"] = target["P"]
        runs = [(None, _structure_laws(doc.kind, twist3, True))
                for twist3 in (True, False)]
        for tag, (per_role, _) in _MAP_LAWS.items():
            if tag not in ("commutes", "operator-intertwine") or doc.operators is not None:
                runs += [(role, _map_laws(tag, role))
                         for role in (KIND_ROLES[doc.kind] if per_role else (None,))]
        for role, laws in runs:
            if role is not None:
                frame["m"], frame["m~"] = frame[role], frame[role + "~"]
                frame["m2"], frame["m2~"] = target[role], target[role + "~"]
            held, n = _guarded_sides(laws, frame, doc.labels, doc.dim)
            seen.update(laws)
            tried += n
            skipped += len(held)
            for law, sides in held:
                held_by.add(law)
                assert all(not any(side) for side in sides), (doc, law.axiom, sides)
    assert seen == held_by, [law.axiom for law in seen - held_by]
    assert 0 < skipped < tried, (skipped, tried)


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
