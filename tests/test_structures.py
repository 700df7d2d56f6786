"""Doc model and the canonical wire format.

The format is deliberately rigid: fixed key order, compact separators, one
doc per line, scalars as ints or "num/den" strings.  Tests here freeze the
bytes, not just the structure.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halg import (GF, QQ, AlgebraDoc, BilinearMap, DocSyntaxError, HalgError,
                  LinearMap, OmegaSet, OperatorFamily, ParamError, ShapeError,
                  Violation, catalog, make_doc, make_report, parse_doc,
                  report_to_jsonable, serialize_doc, validate_doc)
from halg.errors import ZeroDenominatorError
from halg.structures import (HOM_ASSOC_MATCHING_RB, KIND_ROLES, KINDS,
                             MATCHING_HOM_ASSOC, MATCHING_HOM_LIE, RB_KINDS,
                             PLAIN_ASSOC_MATCHING_RB, swap_part)

N2 = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
BR2 = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]


def tiny_doc(kind, field=QQ):
    """A shape-valid doc of the given kind on dim-2 zero tensors."""
    zero = BilinearMap.zero(field, 2)
    families = {role: {"a": zero, "b": zero} for role in KIND_ROLES[kind]}
    operators = None
    twist = LinearMap.identity(field, 2)
    if kind in RB_KINDS:
        families = {role: zero for role in KIND_ROLES[kind]}
        operators = OperatorFamily(
            ops={"a": LinearMap.identity(field, 2),
                 "b": LinearMap.from_rows(field, [[0, 0], [1, 0]])},
            weights={"a": 0, "b": field.reduce(-1)})
        if kind.startswith("plain-"):
            twist = None
    return make_doc(field, 2, ("a", "b"), kind, families,
                    operators=operators, twist=twist)


def test_every_kind_round_trips_and_is_byte_stable():
    for kind in KINDS:
        doc = tiny_doc(kind)
        blob = serialize_doc(doc)
        assert b"\n" not in blob
        doc2 = parse_doc(blob)
        assert doc2 == doc
        assert serialize_doc(doc2) == blob


def test_key_order_is_fixed():
    doc = tiny_doc(MATCHING_HOM_ASSOC)
    raw = serialize_doc(doc).decode()
    keys = list(json.loads(raw))
    assert keys == ["format-version", "kind", "field", "dim", "omega",
                    "families", "twist"]
    assert raw.startswith('{"format-version":"1","kind":"matching-hom-assoc"')
    assert ", " not in raw and ": " not in raw

    rb = tiny_doc(HOM_ASSOC_MATCHING_RB)
    assert list(json.loads(serialize_doc(rb).decode())) == [
        "format-version", "kind", "field", "dim", "omega", "families",
        "operators", "twist"]


def test_rb_family_serializes_as_single_tensor():
    rb = tiny_doc(HOM_ASSOC_MATCHING_RB)
    raw = json.loads(serialize_doc(rb))
    assert isinstance(raw["families"]["dot"], list)
    doc = parse_doc(json.dumps(raw))
    maps = doc.families["dot"].maps
    assert set(maps) == {"a", "b"} and maps["a"] == maps["b"]


def test_rb_family_rejects_per_label_dict():
    raw = json.loads(serialize_doc(tiny_doc(HOM_ASSOC_MATCHING_RB)))
    raw["families"]["dot"] = {"a": raw["families"]["dot"],
                              "b": raw["families"]["dot"]}
    with pytest.raises(ShapeError):
        parse_doc(json.dumps(raw))


def test_non_rb_family_requires_label_dict():
    raw = json.loads(serialize_doc(tiny_doc(MATCHING_HOM_ASSOC)))
    raw["families"]["dot"] = raw["families"]["dot"]["a"]
    with pytest.raises(ShapeError):
        parse_doc(json.dumps(raw))


def test_residues_and_fractions_normalize_on_parse():
    raw = json.loads(serialize_doc(tiny_doc(MATCHING_HOM_ASSOC, GF(3))))
    raw["families"]["dot"]["a"][0][0][0] = 5
    assert parse_doc(json.dumps(raw)).families["dot"].maps["a"].c[0][0][0] == 2

    raw = json.loads(serialize_doc(tiny_doc(MATCHING_HOM_ASSOC)))
    raw["families"]["dot"]["a"][0][0][0] = "4/2"
    doc = parse_doc(json.dumps(raw))
    v = doc.families["dot"].maps["a"].c[0][0][0]
    assert v == 2 and isinstance(v, int)
    assert serialize_doc(parse_doc(serialize_doc(doc))) == serialize_doc(doc)


def test_fraction_scalars_serialize_as_strings():
    from fractions import Fraction
    m = BilinearMap.from_nested(QQ, [[[Fraction(1, 2), 0], [0, 0]],
                                     [[0, 0], [0, 0]]])
    doc = make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, {"dot": {"a": m}},
                   twist=LinearMap.identity(QQ, 2))
    raw = json.loads(serialize_doc(doc))
    assert raw["families"]["dot"]["a"][0][0][0] == "1/2"


def test_parse_doc_syntax_errors():
    with pytest.raises(DocSyntaxError):
        parse_doc(b"\xff\xfe")
    with pytest.raises(DocSyntaxError):
        parse_doc("not json")
    with pytest.raises(DocSyntaxError):
        parse_doc("[1,2]")
    with pytest.raises(ShapeError):
        parse_doc("{}")


def test_parse_doc_rejects_unknown_and_misversioned_keys():
    base = json.loads(serialize_doc(tiny_doc(MATCHING_HOM_ASSOC)))
    bad = dict(base)
    bad["format-version"] = "2"
    with pytest.raises(ShapeError):
        parse_doc(json.dumps(bad))
    bad = dict(base)
    bad["comment"] = "hi"
    with pytest.raises(ShapeError):
        parse_doc(json.dumps(bad))
    bad = dict(base)
    bad["kind"] = "octonion"
    with pytest.raises(ShapeError):
        parse_doc(json.dumps(bad))


def test_parse_doc_rejects_floats_and_bools():
    base = json.loads(serialize_doc(tiny_doc(MATCHING_HOM_ASSOC)))
    for bad_value in (1.0, True):
        raw = json.loads(json.dumps(base))
        raw["families"]["dot"]["a"][0][0][0] = bad_value
        with pytest.raises(ShapeError):
            parse_doc(json.dumps(raw))


def test_tensor_shape_errors():
    three = [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    raw = json.loads(serialize_doc(tiny_doc(MATCHING_HOM_ASSOC)))
    raw["families"]["dot"]["a"] = three
    with pytest.raises(ShapeError):
        parse_doc(json.dumps(raw))


def test_bracket_must_alternate():
    bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # [e0,e0] = e1
    with pytest.raises(ShapeError):
        make_doc(QQ, 2, ("a",), MATCHING_HOM_LIE,
                 {"bracket": {"a": BilinearMap.from_nested(QQ, bad)}},
                 twist=LinearMap.identity(QQ, 2))
    skew = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]  # c[0][1] = -c[1][0] fails over Q
    with pytest.raises(ShapeError):
        make_doc(QQ, 2, ("a",), MATCHING_HOM_LIE,
                 {"bracket": {"a": BilinearMap.from_nested(QQ, skew)}},
                 twist=LinearMap.identity(QQ, 2))
    # ... but the same tensor alternates in characteristic 2
    make_doc(GF(2), 2, ("a",), MATCHING_HOM_LIE,
             {"bracket": {"a": BilinearMap.from_nested(GF(2), skew)}},
             twist=LinearMap.identity(GF(2), 2))


def test_role_and_operator_requirements():
    zero = BilinearMap.zero(QQ, 2)
    id2 = LinearMap.identity(QQ, 2)
    with pytest.raises(ShapeError):
        make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, {"bracket": {"a": zero}},
                 twist=id2)
    with pytest.raises(ShapeError):  # rb kind without operators
        make_doc(QQ, 2, ("a",), HOM_ASSOC_MATCHING_RB, {"dot": zero}, twist=id2)
    with pytest.raises(ShapeError):  # non-rb kind with operators
        make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, {"dot": {"a": zero}},
                 operators=OperatorFamily(ops={"a": id2}, weights={"a": 0}),
                 twist=id2)
    with pytest.raises(ShapeError):  # Hom kind without a twist
        make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC, {"dot": {"a": zero}})
    with pytest.raises(ShapeError):  # incomplete label coverage
        make_doc(QQ, 2, ("a", "b"), MATCHING_HOM_ASSOC, {"dot": {"a": zero}},
                 twist=id2)
    with pytest.raises(ShapeError):  # weight must be a canonical scalar
        make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": zero},
                 operators=OperatorFamily(ops={"a": id2}, weights={"a": True}))


def test_plain_kind_identity_twist_normalizes_away():
    zero = BilinearMap.zero(QQ, 2)
    id2 = LinearMap.identity(QQ, 2)
    ops = OperatorFamily(ops={"a": id2}, weights={"a": -1})
    doc = make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": zero},
                   operators=ops, twist=id2)
    assert doc.twist is None
    assert doc.twist_map().is_identity()
    # direct construction bypasses normalization; validation then refuses it
    bad = AlgebraDoc(QQ, 2, OmegaSet(("a",)), PLAIN_ASSOC_MATCHING_RB,
                     doc.families, ops, id2)
    with pytest.raises(ShapeError):
        validate_doc(bad)


def test_plain_kind_candidate_twist_round_trips():
    zero = BilinearMap.zero(QQ, 2)
    cand = LinearMap.from_rows(QQ, [[1, 0], [0, 2]])
    doc = make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": zero},
                   operators=OperatorFamily(ops={"a": cand}, weights={"a": 0}),
                   twist=cand)
    assert doc.twist == cand
    assert parse_doc(serialize_doc(doc)) == doc


def test_omega_set_validation():
    with pytest.raises(ShapeError):
        OmegaSet(())
    with pytest.raises(ShapeError):
        OmegaSet(("a", "a"))
    with pytest.raises(ShapeError):
        OmegaSet(("a", 1))
    assert list(OmegaSet(("b", "a"))) == ["b", "a"]  # order is the author's


def test_report_jsonable_formats_scalars():
    from fractions import Fraction
    v = Violation("matching-hom-assoc", ("a", "b"), (0, 1, 1),
                  (Fraction(1, 2), 0), (0, 0))
    rep = make_report([v])
    payload = report_to_jsonable(rep, QQ)
    assert payload["verdict"] == "fail"
    entry = payload["violations"][0]
    assert entry["axiom-id"] == "matching-hom-assoc"
    assert entry["omega-indices"] == ["a", "b"]
    assert entry["basis-indices"] == [0, 1, 1]
    assert entry["lhs"] == ["1/2", 0]
    assert json.dumps(payload)  # JSON-serializable as-is

    assert report_to_jsonable(make_report([]), QQ) == {
        "verdict": "pass", "violations": []}


@given(st.sampled_from(sorted(KINDS)), st.sampled_from((2, 3, 5)))
def test_round_trip_property_over_prime_fields(kind, p):
    doc = tiny_doc(kind, GF(p))
    assert parse_doc(serialize_doc(doc)) == doc


def test_parse_doc_denominator_divisible_by_p_names_the_scalar():
    obj = json.loads(serialize_doc(catalog("N2-F3")))
    obj["families"]["dot"]["a"][1][0][1] = "1/3"
    with pytest.raises(ShapeError) as exc:
        parse_doc(json.dumps(obj).encode())
    assert exc.value.path == "families.dot.a[1][0][1]"


def test_prime_field_weight_must_be_an_integer_residue():
    # over Q, 2/1 is not canonical either: as a matrix entry it is refused
    for field, weight in ((GF(3), Fraction(1, 2)), (GF(3), Fraction(2, 1)),
                          (QQ, Fraction(2, 1))):
        id2 = LinearMap.identity(field, 2)
        with pytest.raises(ShapeError) as exc:
            make_doc(field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                     {"dot": BilinearMap.zero(field, 2)},
                     operators=OperatorFamily(ops={"a": id2}, weights={"a": weight}))
        assert exc.value.path == "operators.weights.a"


def test_matrix_entries_are_canonical_so_docs_parse_again():
    # over F_2, 1/2 has no value: the map is refused, so no doc spells "1/2"
    with pytest.raises(ZeroDenominatorError) as exc:
        LinearMap.from_rows(GF(2), [[Fraction(1, 2), 0], [0, 0]], "operators.ops.a")
    assert exc.value.path == "operators.ops.a[0][0]"
    # over F_3, 1/2 is 2
    field = GF(3)
    op = LinearMap.from_rows(field, [[Fraction(1, 2), 0], [0, 0]])
    dot = BilinearMap.from_nested(field, [[[Fraction(-1, 2), 0], [0, 0]],
                                          [[0, 0], [0, 0]]])
    doc = make_doc(field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": dot},
                   operators=OperatorFamily(ops={"a": op}, weights={"a": 0}))
    line = serialize_doc(doc)
    assert op.rows[0][0] == 2 and dot.c[0][0][0] == 1
    assert b"/" not in line and serialize_doc(parse_doc(line)) == line


def test_validate_doc_refuses_non_canonical_entries_at_their_path():
    # the constructors take entries as given; validate_doc refuses a doc
    # that would not parse again
    f2 = GF(2)
    with pytest.raises(ShapeError) as exc:
        make_doc(f2, 2, ("a",), "plain-assoc-matching-rb",
                 {"dot": BilinearMap.zero(f2, 2)},
                 operators=OperatorFamily(
                     ops={"a": LinearMap(f2, ((Fraction(1, 2), 0), (0, 0)))},
                     weights={"a": 0}))
    assert exc.value.path == "operators.ops.a[0][0]"

    def bad_rows(v, dim=2):
        return tuple(tuple(v if (i, j) == (dim - 1, 0) else 0 for j in range(dim))
                     for i in range(dim))

    zero = BilinearMap.zero(f2, 2)
    ops = OperatorFamily(ops={"a": LinearMap.identity(f2, 2)}, weights={"a": 0})
    for v in (2, -1, True, 1.0, Fraction(1, 1)):
        with pytest.raises(ShapeError) as exc:
            make_doc(f2, 2, ("a",), MATCHING_HOM_ASSOC, {"dot": {"a": zero}},
                     twist=LinearMap(f2, bad_rows(v)))
        assert exc.value.path == "twist[1][0]"
        tensor = BilinearMap(f2, (bad_rows(0), bad_rows(v)))
        with pytest.raises(ShapeError) as exc:
            make_doc(f2, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": tensor},
                     operators=ops)
        assert exc.value.path == "families.dot[1][1][0]"
        with pytest.raises(ShapeError) as exc:
            make_doc(f2, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                     {"dot": {"a": zero, "b": tensor}},
                     twist=LinearMap.identity(f2, 2))
        assert exc.value.path == "families.dot.b[1][1][0]"
    # over Q: ints and fractions that are not integers
    for v in (Fraction(2, 1), 0.5, True):
        with pytest.raises(ShapeError) as exc:
            make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC,
                     {"dot": {"a": BilinearMap.zero(QQ, 2)}},
                     twist=LinearMap(QQ, bad_rows(v)))
        assert exc.value.path == "twist[1][0]"
    doc = make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC,
                   {"dot": {"a": BilinearMap.zero(QQ, 2)}},
                   twist=LinearMap(QQ, bad_rows(Fraction(-1, 2))))
    assert parse_doc(serialize_doc(doc)) == doc
    # a ragged matrix is refused at its row
    with pytest.raises(ShapeError) as exc:
        make_doc(f2, 2, ("a",), MATCHING_HOM_ASSOC, {"dot": {"a": zero}},
                 twist=LinearMap(f2, ((1, 0), (1,))))
    assert exc.value.path == "twist[1]"


def test_swap_part_checks_the_new_part_and_shares_the_rest():
    base = catalog("N2-Pnil-w0-F3")
    field = base.field
    cand = LinearMap.from_rows(field, [[1, 0], [0, 0]])
    doc = swap_part(base, twist=cand)
    assert doc.families is base.families and doc.operators is base.operators
    assert doc == make_doc(field, 2, base.omega, base.kind, base.families,
                           operators=base.operators, twist=cand)
    assert swap_part(base, twist=LinearMap.identity(field, 2)).twist is None
    ops = OperatorFamily(ops={"a": LinearMap.identity(field, 2)}, weights={"a": 2})
    doc = swap_part(base, operators=ops)
    assert doc.operators is ops and doc.families is base.families
    validate_doc(doc)
    with pytest.raises(ShapeError) as exc:
        swap_part(base, twist=LinearMap(field, ((3, 0), (0, 1))))
    assert exc.value.path == "twist[0][0]"
    with pytest.raises(ShapeError) as exc:
        swap_part(base, operators=OperatorFamily(
            ops={"a": LinearMap(field, ((0, 0), (0, -1)))}, weights={"a": 0}))
    assert exc.value.path == "operators.ops.a[1][1]"
    with pytest.raises(ParamError):
        swap_part(base)
    with pytest.raises(ParamError):
        swap_part(base, twist=cand, operators=ops)


def test_parse_doc_refuses_a_kind_that_is_not_a_string():
    for kind in ([1], {"a": 1}, 7):
        with pytest.raises(ShapeError) as exc:
            parse_doc(json.dumps({"format-version": "1", "kind": kind}))
        assert exc.value.path == "kind"


def test_parse_doc_refuses_nesting_too_deep_for_the_parser():
    for data in (b"[" * 100000, "[" * 100000 + "]" * 100000, b'{"a":' * 100000):
        with pytest.raises(DocSyntaxError):
            parse_doc(data)


def _value_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _value_paths(value, path + (key,))


FUZZ_DOCS = [json.loads(serialize_doc(doc)) for doc in
             [*catalog().values(), *(tiny_doc(kind, GF(3)) for kind in sorted(KINDS))]]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_doc_lets_only_halg_errors_escape(data):
    obj = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_DOCS))))
    path = data.draw(st.sampled_from(list(_value_paths(obj))))
    value = data.draw(JSON_VALUES)
    if path:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        obj = value
    try:
        doc = parse_doc(json.dumps(obj))
    except HalgError:
        return
    assert parse_doc(serialize_doc(doc)) == doc


def _malformed(doc, edit):
    obj = json.loads(serialize_doc(doc))
    edit(obj)
    return obj


ZEROS3 = [[[0] * 3] * 3] * 3
PLAIN_RB2 = tiny_doc(PLAIN_ASSOC_MATCHING_RB, GF(3))   # labels a, b
HOM_ASSOC2 = tiny_doc(MATCHING_HOM_ASSOC, GF(3))       # labels a, b
MALFORMED_DOCS = [
    # (doc, edit, path of the refusal)
    (HOM_ASSOC2, lambda o: o["families"].pop("dot"), "families"),
    (HOM_ASSOC2, lambda o: o["families"].update(star=o["families"]["dot"]), "families"),
    (PLAIN_RB2, lambda o: o["families"].update(bracket=o["families"]["dot"]), "families"),
    (HOM_ASSOC2, lambda o: o["families"]["dot"].pop("b"), "families.dot"),
    (HOM_ASSOC2, lambda o: o["families"]["dot"].update(c=o["families"]["dot"]["a"]),
     "families.dot"),
    (PLAIN_RB2, lambda o: o["operators"]["ops"].pop("b"), "operators.ops"),
    (PLAIN_RB2, lambda o: o["operators"]["weights"].pop("a"), "operators.weights"),
    (PLAIN_RB2, lambda o: o["families"].update(dot=ZEROS3), "families.dot"),
    (HOM_ASSOC2, lambda o: o["families"]["dot"].update(b=ZEROS3), "families.dot.b"),
    (HOM_ASSOC2, lambda o: o.update(twist=ZEROS3[0]), "twist"),
    (PLAIN_RB2, lambda o: o.update(twist=ZEROS3[0]), "twist"),
    # on a plain kind, only the dim x dim identity is dropped
    (PLAIN_RB2, lambda o: o.update(twist=[[1]]), "twist"),
    (PLAIN_RB2, lambda o: o.update(twist=[[1], [0, 1]]), "twist[0]"),
    (PLAIN_RB2, lambda o: o.update(twist=[[1, 0, 0], [0, 1, 0]]), "twist[0]"),
    (PLAIN_RB2, lambda o: o["operators"]["ops"]["a"][1].pop(), "operators.ops.a[1]"),
    *((doc, lambda o, d=d: o.update(dim=d), "dim")
      for doc in (PLAIN_RB2, HOM_ASSOC2) for d in (0, "2", True)),
]


def test_malformed_docs_are_refused_at_their_json_path():
    # parse_doc only reads the JSON; these are refused by validate_doc
    for doc, edit, path in MALFORMED_DOCS:
        with pytest.raises(ShapeError) as exc:
            parse_doc(json.dumps(_malformed(doc, edit)))
        assert exc.value.path == path, exc.value

