"""Enumeration, sampling, and the fixture catalog.

The exact hit counts here were computed by the first enumeration runs and
frozen; a change in any of them means the search order or the identity
checks moved.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from halg import (GF, BilinearMap, BudgetExceededError, LinearMap,
                  NonFiniteFieldError, OperatorFamily, ParamError,
                  PreconditionFailed, SearchSpec, ShapeError, TARGET_COMMUTING,
                  TARGET_ENDOMORPHISM, TARGET_RB_FAMILY, TheoremCheckError,
                  UnknownFixtureError, catalog, check_side_conditions,
                  enumerate_docs, fixture_names, make_doc, parse_doc,
                  seeded_sample, serialize_doc, structure_ok, validate_doc,
                  yau_twist)
import halg.axioms
import halg.search
from halg.axioms import candidate_check
from halg.errors import ZeroDenominatorError
from halg.search import (_groups, _rb_family_plan, _walk, check_sample_size,
                         sample_hits, search_hits)
from halg.structures import (HOM_ASSOC_MATCHING_RB, MATCHING_HOM_ASSOC,
                             MATCHING_HOM_DENDRIFORM, PLAIN_ASSOC_MATCHING_RB,
                             PLAIN_LIE_MATCHING_RB)


def rb_spec(base, omega, weights, **kw):
    return SearchSpec(base=base, target=TARGET_RB_FAMILY,
                      omega_size=omega, weights=weights, **kw)


def test_zero_product_accepts_every_operator_family():
    res = enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (0,)))
    assert len(res) == 16 and not res.truncated
    assert res.docs[0].operators.ops["a"].rows == ((0, 0), (0, 0))
    assert res.docs[1].operators.ops["a"].rows == ((0, 0), (0, 1))
    assert all(d.kind == PLAIN_ASSOC_MATCHING_RB and d.twist is None
               for d in res)


def test_two_label_search_generates_label_names():
    res = enumerate_docs(rb_spec(catalog("Z2-F2"), 2, (0, 1)))
    assert len(res) == 256
    assert all(d.labels == ("a", "b") for d in res)
    assert all(d.operators.weights == {"a": 0, "b": 1} for d in res)


def test_ground_field_operators_depend_on_the_weight():
    # dim 1, c = 1: a^2 = 2a^2 + w a^2, so w=0 forces a=0 and w=1 allows all
    res0 = enumerate_docs(rb_spec(catalog("D1-F2"), 1, (0,)))
    assert [d.operators.ops["a"].rows for d in res0] == [((0,),)]
    res1 = enumerate_docs(rb_spec(catalog("D1-F2"), 1, (1,)))
    assert [d.operators.ops["a"].rows for d in res1] == [((0,),), ((1,),)]


def test_dual_numbers_pinned_hits():
    res0 = enumerate_docs(rb_spec(catalog("N2-F2"), 1, (0,)))
    assert [d.operators.ops["a"].rows for d in res0] == [
        ((0, 0), (0, 0)), ((0, 0), (1, 0))]
    res1 = enumerate_docs(rb_spec(catalog("N2-F2"), 1, (1,)))
    assert len(res1) == 4
    assert ((1, 0), (0, 1)) in [d.operators.ops["a"].rows for d in res1]
    assert all(structure_ok(d) for d in res1)


def test_hom_base_carries_kind_and_twist():
    field = GF(3)
    base = make_doc(field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.from_nested(
                        field, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0, 0], [0, 0]])},
                        weights={"a": 0}))
    hom = yau_twist(base, LinearMap.from_rows(field, [[1, 0], [0, 2]]))
    res = enumerate_docs(rb_spec(hom, 1, (0,)))
    assert len(res) == 9 and not res.truncated
    assert all(d.kind == HOM_ASSOC_MATCHING_RB for d in res)
    assert all(d.twist.rows == ((1, 0), (0, 2)) for d in res)


def test_probe_failure_short_circuits_to_empty():
    field = GF(2)
    broken = make_doc(field, 2, ("a",), MATCHING_HOM_ASSOC,
                      {"dot": {"a": BilinearMap.from_nested(
                          field, [[[1, 0], [1, 0]], [[0, 0], [0, 0]]])}},
                      twist=LinearMap.identity(field, 2))
    res = enumerate_docs(rb_spec(broken, 1, (0,)))
    assert res.docs == () and not res.truncated


def test_limit_and_truncation_semantics():
    res = enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (0,), limit=5))
    assert len(res) == 5 and res.truncated
    res = enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (0,), limit=16))
    assert len(res) == 16 and not res.truncated
    res = enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (0,), limit=99))
    assert len(res) == 16 and not res.truncated


def test_budget_is_checked_up_front():
    with pytest.raises(BudgetExceededError):
        enumerate_docs(rb_spec(catalog("N2-F2"), 1, (0,), budget=10))
    with pytest.raises(BudgetExceededError):
        enumerate_docs(SearchSpec(base=catalog("N2-Pnil-w0-F2"),
                                  target=TARGET_COMMUTING, budget=3))


def test_rationals_are_not_enumerable():
    with pytest.raises(NonFiniteFieldError):
        enumerate_docs(rb_spec(catalog("N2"), 1, (0,)))
    with pytest.raises(NonFiniteFieldError):
        seeded_sample(rb_spec(catalog("N2"), 1, (0,)), seed=0, count=1)


def test_search_parameter_guards():
    with pytest.raises(ParamError):
        enumerate_docs(SearchSpec(base=catalog("Z2-F2"), target="no-such"))
    with pytest.raises(ParamError):
        enumerate_docs(rb_spec(catalog("Z2-F2"), None, ()))
    with pytest.raises(ParamError):
        enumerate_docs(rb_spec(catalog("Z2-F2"), 2, (0,)))
    with pytest.raises(ParamError):
        enumerate_docs(SearchSpec(base=catalog("N2-Pnil-w0-F2"),
                                  target=TARGET_ENDOMORPHISM, omega_size=2))
    with pytest.raises(ParamError):
        enumerate_docs(SearchSpec(base=catalog("N2-Pnil-w0-F2"),
                                  target=TARGET_ENDOMORPHISM, weights=(1,)))


def test_a_sample_refuses_what_an_enumeration_refuses():
    base = catalog("N2-Pnil-w0-F2")
    specs = [SearchSpec(base, target, **kw)
             for target in (TARGET_ENDOMORPHISM, TARGET_COMMUTING)
             for kw in ({"omega_size": 2}, {"weights": (1,)}, {"limit": 0})]
    specs.append(rb_spec(catalog("Z2-F2"), 1, (0,), limit=0))
    for spec in specs:
        with pytest.raises(ParamError) as enumerated:
            enumerate_docs(spec)
        for sample in (seeded_sample, sample_hits):
            with pytest.raises(ParamError) as sampled:
                sample(spec, seed=1, count=1)
            assert str(sampled.value) == str(enumerated.value)


def test_search_base_kind_guards():
    field = GF(2)
    dend = make_doc(field, 2, ("a",), MATCHING_HOM_DENDRIFORM,
                    {"left": {"a": BilinearMap.zero(field, 2)},
                     "right": {"a": BilinearMap.zero(field, 2)}},
                    twist=LinearMap.identity(field, 2))
    with pytest.raises(PreconditionFailed):
        enumerate_docs(rb_spec(dend, 1, (0,)))
    two = make_doc(field, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                   {"dot": {"a": BilinearMap.zero(field, 2),
                            "b": BilinearMap.zero(field, 2)}},
                   twist=LinearMap.identity(field, 2))
    with pytest.raises(PreconditionFailed):
        enumerate_docs(rb_spec(two, 1, (0,)))
    with pytest.raises(PreconditionFailed):
        enumerate_docs(SearchSpec(base=catalog("N2-F2"),
                                  target=TARGET_ENDOMORPHISM))
    bad_base = make_doc(GF(3), 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                        {"dot": BilinearMap.from_nested(
                            GF(3), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])},
                        operators=OperatorFamily(
                            ops={"a": LinearMap.identity(GF(3), 2)},
                            weights={"a": 1}))
    assert not structure_ok(bad_base)
    with pytest.raises(PreconditionFailed):
        enumerate_docs(SearchSpec(base=bad_base, target=TARGET_ENDOMORPHISM))


def test_endomorphism_target_pinned_hits():
    res = enumerate_docs(SearchSpec(base=catalog("N2-Pnil-w0-F2"),
                                    target=TARGET_ENDOMORPHISM))
    assert len(res) == 3
    assert res.docs[0].twist.rows == ((0, 0), (0, 0))
    assert res.docs[1].twist.rows == ((1, 0), (0, 0))
    assert res.docs[2].twist is None  # the identity candidate normalizes away
    assert all(d.kind == PLAIN_ASSOC_MATCHING_RB for d in res)


def test_commuting_target_is_the_centralizer():
    res = enumerate_docs(SearchSpec(base=catalog("N2-Pnil-w0-F2"),
                                    target=TARGET_COMMUTING))
    # matrices commuting with the nilpotent shift: [[a,0],[b,a]] over F_2
    assert len(res) == 4


def test_a_commuting_solution_that_fails_the_recheck_is_a_theorem_failure(
        monkeypatch):
    # f = [[1,0],[0,0]] does not commute with the shift [[0,0],[1,0]]
    monkeypatch.setattr(halg.search, "_commuting_maps",
                        lambda base: iter([((1, 0), (0, 0))]))
    with pytest.raises(TheoremCheckError) as exc:
        enumerate_docs(SearchSpec(catalog("N2-Pnil-w0-F2"), TARGET_COMMUTING))
    assert not exc.value.report.passed


def test_seeded_sample_is_deterministic():
    spec = rb_spec(catalog("Z2-F2"), 1, (0,))
    one = seeded_sample(spec, seed=42, count=10)
    two = seeded_sample(spec, seed=42, count=10)
    assert len(one) == 10 and not one.truncated
    assert [serialize_doc(d) for d in one] == [serialize_doc(d) for d in two]
    assert all(structure_ok(d) for d in one)


def _twisted_n2_f3():
    field = GF(3)
    base = make_doc(field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.from_nested(
                        field, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0, 0], [0, 0]])},
                        weights={"a": 0}))
    return yau_twist(base, LinearMap.from_rows(field, [[1, 0], [0, 2]]))


def test_seeded_sample_bytes_are_pinned():
    # the closure benchmark pool is drawn from seeded_sample, so its output
    # bytes for fixed seeds stay exactly as they are; hits are emitted
    # unchecked, so each must still be a valid doc that round-trips
    specs = [rb_spec(base, len(weights), weights)
             for base in (catalog("Z2-F2"), catalog("N2-F2"), catalog("N2-F3"),
                          _twisted_n2_f3())
             for weights in ((0,), (1,), (0, 0), (0, 1))]
    specs += [SearchSpec(catalog("N2-Pnil-w0-F2"), target)
              for target in (TARGET_ENDOMORPHISM, TARGET_COMMUTING)]
    digest = hashlib.sha256()
    for seed, spec in enumerate(specs):
        res = seeded_sample(spec, seed=seed, count=4)
        assert len(res) == 4 and not res.truncated
        for doc in res:
            validate_doc(doc)
            assert parse_doc(serialize_doc(doc)) == doc
            digest.update(serialize_doc(doc) + b"\n")
    assert digest.hexdigest() == PINNED_SAMPLE_DIGEST


PINNED_SAMPLE_DIGEST = (
    "8acb09fdbafa2e6d2da3b413a22d7f24fd8a017ebae925552daa751b7efb031b")


def test_seeded_sample_shortfall_and_edge_counts():
    field = GF(2)
    broken = make_doc(field, 2, ("a",), MATCHING_HOM_ASSOC,
                      {"dot": {"a": BilinearMap.from_nested(
                          field, [[[1, 0], [1, 0]], [[0, 0], [0, 0]]])}},
                      twist=LinearMap.identity(field, 2))
    res = seeded_sample(rb_spec(broken, 1, (0,)), seed=7, count=3)
    assert res.docs == () and res.truncated
    empty = seeded_sample(rb_spec(catalog("Z2-F2"), 1, (0,)), seed=7, count=0)
    assert empty.docs == () and not empty.truncated
    with pytest.raises(ParamError):
        seeded_sample(rb_spec(catalog("Z2-F2"), 1, (0,)), seed=7, count=-1)


def test_seeded_sample_endomorphism_target():
    res = seeded_sample(SearchSpec(base=catalog("N2-Pnil-w0-F2"),
                                   target=TARGET_ENDOMORPHISM),
                        seed=3, count=5)
    assert len(res) == 5
    assert all(d.kind == PLAIN_ASSOC_MATCHING_RB for d in res)


def test_seeded_endomorphism_sample_bytes_are_pinned():
    # a sample decides each draw with the decider that the exhaustive walk
    # runs per group of basis pairs; sharing it must not move a draw
    res = seeded_sample(SearchSpec(catalog("N2-Pnil-w0-F3"), TARGET_ENDOMORPHISM),
                        seed=3, count=5)
    assert len(res) == 5 and not res.truncated
    digest = hashlib.sha256(b"".join(serialize_doc(d) + b"\n" for d in res))
    assert digest.hexdigest() == (
        "0e3a7b2748a10a44ed35e10589c01847ebc1d8f3dd5f7ae00ee647073a1c4da3")


def test_catalog_names_and_lookup():
    names = fixture_names()
    assert len(names) == 18 and names == tuple(sorted(names))
    assert set(catalog()) == set(names)
    assert catalog("N2-F3").field.p == 3
    with pytest.raises(UnknownFixtureError):
        catalog("N3")


def test_weights_are_canonical_scalars():
    half = [serialize_doc(d) for d in enumerate_docs(
        rb_spec(catalog("N2-F3"), 1, (Fraction(1, 2),)))]
    two = [serialize_doc(d) for d in enumerate_docs(rb_spec(catalog("N2-F3"), 1, (2,)))]
    assert half and half == two
    assert all(serialize_doc(parse_doc(line)) == line for line in half)
    with pytest.raises(ZeroDenominatorError):
        enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (Fraction(1, 2),)))
    for bad in (0.5, True):
        with pytest.raises(ParamError):
            enumerate_docs(rb_spec(catalog("Z2-F3"), 1, (bad,)))


def test_map_target_weights_are_canonical_scalars():
    # 3 is 0 in F_3, so weights (3,) are the base's own weight 0
    base = catalog("N2-Pnil-w0-F3")
    for target, hits in ((TARGET_ENDOMORPHISM, 4), (TARGET_COMMUTING, 9)):
        same = [serialize_doc(d) for d in enumerate_docs(
            SearchSpec(base, target, weights=(0,)))]
        assert len(same) == hits
        assert [serialize_doc(d) for d in enumerate_docs(
            SearchSpec(base, target, weights=(3,)))] == same
        for bad in (0.5, True):
            with pytest.raises(ParamError):
                enumerate_docs(SearchSpec(base, target, weights=(bad,)))


def test_result_iteration_protocol():
    res = enumerate_docs(rb_spec(catalog("D1-F2"), 1, (1,)))
    assert len(list(res)) == len(res) == 2


def test_a_sample_refuses_a_limit():
    # count bounds a sample, so a limit it would not keep is refused
    for spec in (rb_spec(catalog("Z2-F2"), 1, (0,), limit=1),
                 SearchSpec(catalog("N2-Pnil-w0-F2"), TARGET_ENDOMORPHISM, limit=1)):
        for sample in (seeded_sample, sample_hits):
            with pytest.raises(ParamError, match="^a sample takes no limit"):
                sample(spec, seed=1, count=3)


def test_limit_below_one_is_refused():
    for limit in (0, -1):
        with pytest.raises(ParamError):
            enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (0,), limit=limit))
        with pytest.raises(ParamError):
            enumerate_docs(SearchSpec(catalog("N2-Pnil-w0-F2"),
                                      TARGET_ENDOMORPHISM, limit=limit))
    assert len(enumerate_docs(rb_spec(catalog("Z2-F2"), 1, (0,), limit=1))) == 1


def test_search_arguments_must_be_integers():
    base = catalog("Z2-F2")
    for name in ("omega_size", "limit", "budget"):
        for bad in ("2", 2.5, True):
            with pytest.raises(ParamError, match=f"^{name} must be an integer"):
                SearchSpec(base, TARGET_RB_FAMILY, **{name: bad})
    with pytest.raises(ParamError, match="^budget must be an integer"):
        SearchSpec(base, TARGET_RB_FAMILY, budget=None)
    for bad in (150.5, "4", True):
        with pytest.raises(ParamError, match="^count must be an integer"):
            seeded_sample(rb_spec(base, 1, (0,)), seed=1, count=bad)
    for bad in (None, 1.5, "x", True, [1]):
        with pytest.raises(ParamError, match="^seed must be an integer"):
            seeded_sample(rb_spec(base, 1, (0,)), seed=bad, count=2)


def test_hit_streams_refuse_up_front_and_collect_to_the_results():
    # a refusal comes from the call, before anything is iterated
    with pytest.raises(BudgetExceededError):
        search_hits(rb_spec(catalog("N2-F2"), 1, (0,), budget=10))
    with pytest.raises(PreconditionFailed):
        sample_hits(SearchSpec(catalog("N2-F2"), TARGET_ENDOMORPHISM), seed=1, count=1)
    for limit in (5, 16):
        spec = rb_spec(catalog("Z2-F2"), 1, (0,), limit=limit)
        hits = search_hits(spec)
        res = enumerate_docs(spec)
        assert [serialize_doc(d) for d in hits] == [serialize_doc(d) for d in res]
        assert hits.truncated == res.truncated == (limit == 5)
    spec = SearchSpec(catalog("N2-Pnil-w0-F2"), TARGET_ENDOMORPHISM)
    hits = sample_hits(spec, seed=3, count=5)
    res = seeded_sample(spec, seed=3, count=5)
    assert [serialize_doc(d) for d in hits] == [serialize_doc(d) for d in res]
    assert hits.truncated is res.truncated is False


def test_hits_are_iterated_once():
    # a second iteration is refused, and keeps the first one's truncated
    for limit, truncated in ((3, True), (None, False)):
        hits = search_hits(rb_spec(catalog("Z2-F2"), 1, (0,), limit=limit))
        assert len(list(hits)) == (limit or 16) and hits.truncated is truncated
        for _ in range(2):
            with pytest.raises(ParamError, match="iterated only once"):
                iter(hits)
            assert hits.truncated is truncated
    hits = sample_hits(rb_spec(catalog("Z2-F2"), 1, (0,)), seed=1, count=2)
    next(iter(hits))
    with pytest.raises(ParamError, match="iterated only once"):
        list(hits)
    assert hits.truncated is None


def test_a_huge_label_count_is_refused_before_anything_is_made():
    spec = rb_spec(catalog("N2-F3"), 10**20, (0,))
    with pytest.raises(ParamError, match="expected 100000000000000000000 weights"):
        enumerate_docs(spec)
    # a sample draws dim^2 digits per label in one attempt: no more than the
    # 100000 attempts of the smallest cap, whatever the weights
    for omega in (10**20, 25001):
        with pytest.raises(ParamError, match=f"^{omega} labels of 2x2 operators"):
            seeded_sample(rb_spec(catalog("N2-F3"), omega, (0,)), seed=0, count=1)
    check_sample_size(2, 25000)
    check_sample_size(1, 100000)
    # a space far past the budget is refused without computing its size
    with pytest.raises(BudgetExceededError, match=r"3\^400000 candidates"):
        enumerate_docs(rb_spec(catalog("N2-F3"), 10**5, (0,) * 10**5))


def test_candidate_check_serves_the_searched_map_tags_only():
    # the endomorphism and commuting targets vary f; no search varies it
    # against another law
    base = catalog("N2-Pnil-w0-F3")
    for tag in ("centroid", "morphism", "nope"):
        with pytest.raises(ParamError):
            candidate_check(base, tag)
    for tag in ("endomorphism", "commutes"):
        assert candidate_check(base, tag)(((1, 0), (0, 1)))
    for tag in ("commutes", None):
        with pytest.raises(ShapeError, match="operator family") as exc:
            candidate_check(catalog("N2-F3"), tag)
        assert exc.value.path == "operators"


def test_candidate_tables_decide_over_a_prime_field_only():
    # a candidate is bound as it comes, which is exact only where frames
    # bind D = 1: over F_p
    for tag in (None, "endomorphism", "commutes"):
        with pytest.raises(NonFiniteFieldError):
            candidate_check(catalog("N2-Pnil-w0"), tag)


# --- the structured search against a plain exhaustive loop ---------------------

def _brute_force(spec):
    """(hits, truncated) from the plain loop over every candidate in
    lexicographic digit order, building and checking a doc per candidate."""
    base = spec.base
    field, dim, p = base.field, base.dim, base.field.p
    if spec.target == TARGET_RB_FAMILY:
        product, labels, weights, kind, role, twist = _rb_family_plan(spec)

        def hit(digits):
            ops = {}
            for n, lab in enumerate(labels):
                chunk = digits[n * dim * dim:(n + 1) * dim * dim]
                ops[lab] = LinearMap.from_rows(
                    field, [chunk[r * dim:(r + 1) * dim] for r in range(dim)])
            doc = make_doc(field, dim, labels, kind, {role: product},
                           operators=OperatorFamily(ops=ops, weights=weights),
                           twist=twist)
            return doc if structure_ok(doc) else None
        entries = dim * dim * len(labels)
    else:
        tag = "endomorphism" if spec.target == TARGET_ENDOMORPHISM else "commutes"

        def hit(digits):
            cand = LinearMap.from_rows(
                field, [digits[r * dim:(r + 1) * dim] for r in range(dim)])
            if not check_side_conditions(base, [tag], candidate=cand).passed:
                return None
            return make_doc(field, dim, base.omega, base.kind, base.families,
                            operators=base.operators, twist=cand)
        entries = dim * dim
    hits = []
    for digits in itertools.product(range(p), repeat=entries):
        doc = hit(digits)
        if doc is not None:
            hits.append(doc)
            if len(hits) == spec.limit:
                return hits, any(v != p - 1 for v in digits)
    return hits, False


def _same_as_brute_force(spec):
    res = enumerate_docs(spec)
    hits, truncated = _brute_force(spec)
    assert [serialize_doc(d) for d in res] == [serialize_doc(d) for d in hits]
    assert res.truncated == truncated
    for doc in res:
        validate_doc(doc)
        assert parse_doc(serialize_doc(doc)) == doc
    return len(hits)


def _n3_f3(op_rows):
    """k[x]/(x^3) over F_3 with one weight-0 operator."""
    field = GF(3)
    c = [[[int(i + j == k) for k in range(3)] for j in range(3)] for i in range(3)]
    return make_doc(field, 3, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.from_nested(field, c)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, op_rows)},
                        weights={"a": 0}))


def _zero3_f2():
    field = GF(2)
    return make_doc(field, 3, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.zero(field, 3)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0] * 3] * 3)},
                        weights={"a": 0}))


def _aff2_lie_f3():
    """The nonabelian 2-dim Lie algebra over F_3 with a weight-0 operator;
    [e0, e1] = e1 reads both columns of f, [e0, e0] = 0 only the first."""
    field = GF(3)
    return make_doc(field, 2, ("a",), PLAIN_LIE_MATCHING_RB,
                    {"bracket": BilinearMap.from_nested(
                        field, [[[0, 0], [0, 1]], [[0, 2], [0, 0]]])},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0, 0], [1, 0]])},
                        weights={"a": 0}))


def _two_operators_f3():
    """The zero product over F_3 with two different operators: f commutes
    with the first alone on 9 maps, with both only on the 3 scalars."""
    field = GF(3)
    return make_doc(field, 2, ("a", "b"), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.zero(field, 2)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0, 0], [1, 0]]),
                             "b": LinearMap.from_rows(field, [[0, 1], [0, 0]])},
                        weights={"a": 0, "b": 1}))


def _broken_f2():
    field = GF(2)
    return make_doc(field, 2, ("a",), MATCHING_HOM_ASSOC,
                    {"dot": {"a": BilinearMap.from_nested(
                        field, [[[1, 0], [1, 0]], [[0, 0], [0, 0]]])}},
                    twist=LinearMap.identity(field, 2))


def test_rb_family_matches_brute_force_on_every_catalog_fixture():
    f3_dim2 = 0
    for name in fixture_names():
        base = catalog(name)
        if not base.field.is_prime_field:
            continue
        p = base.field.p
        weights = sorted({0, 1, p - 1})
        for w in weights:
            _same_as_brute_force(rb_spec(base, 1, (w,)))
        pairs = list(itertools.product(weights, repeat=2))
        if p == 3 and base.dim == 2:
            # 6561 candidates each: one weight pair per fixture, and a limit
            # that keeps the all-hit Z2-F3 space short
            pair = pairs[f3_dim2 * 4 % len(pairs)]
            f3_dim2 += 1
            _same_as_brute_force(rb_spec(base, 2, pair, limit=40))
        else:
            for pair in pairs:
                _same_as_brute_force(rb_spec(base, 2, pair))


def test_rb_family_matches_brute_force_on_twisted_and_broken_bases():
    hom = _twisted_n2_f3()
    assert _same_as_brute_force(rb_spec(hom, 1, (2,))) > 0
    assert _same_as_brute_force(rb_spec(hom, 2, (0, 0))) == 33
    for omega in (1, 2):
        assert _same_as_brute_force(rb_spec(_broken_f2(), omega, (0,) * omega)) == 0


def test_every_limit_matches_brute_force():
    for spec in (rb_spec(catalog("N2-F2"), 2, (0, 1)),
                 SearchSpec(catalog("N2-Pnil-w0-F3"), TARGET_COMMUTING),
                 SearchSpec(_aff2_lie_f3(), TARGET_ENDOMORPHISM)):
        hits = len(enumerate_docs(spec))
        for limit in range(1, hits + 2):
            _same_as_brute_force(SearchSpec(spec.base, spec.target, spec.omega_size,
                                            spec.weights, limit=limit))


def test_map_targets_match_brute_force():
    bases = [catalog(name) for name in fixture_names()
             if catalog(name).kind == PLAIN_ASSOC_MATCHING_RB
             and catalog(name).field.is_prime_field]
    bases += [_n3_f3([[0, 0, 0], [1, 0, 0], [0, 2, 0]]), _zero3_f2(), _aff2_lie_f3(),
              _two_operators_f3()]
    for base in bases:
        for target in (TARGET_ENDOMORPHISM, TARGET_COMMUTING):
            if structure_ok(base):
                _same_as_brute_force(SearchSpec(base, target))


def test_candidate_check_agrees_with_the_side_condition_check():
    # one decider serves the walk, sampling and the commuting target; on
    # every candidate it reads as check_side_conditions does
    bases = [catalog(name + suffix) for name in ("N2-Pnil-w0", "N2-id-wm1")
             for suffix in ("-F2", "-F3")] + [_two_operators_f3()]
    for tag in ("endomorphism", "commutes"):
        verdicts = []
        for base in bases:
            field, dim = base.field, base.dim
            check = candidate_check(base, tag)
            for m in itertools.product(itertools.product(range(field.p), repeat=dim),
                                       repeat=dim):
                report = check_side_conditions(base, [tag], candidate=LinearMap(field, m))
                assert check(tuple(zip(*m))) == report.passed, (base, tag, m)
                verdicts.append(report.passed)
        assert len(verdicts) == 2 * 16 + 3 * 81 and 0 < sum(verdicts) < len(verdicts)


# --- the endomorphism walk by row prefix ---------------------------------------

def _plain_base(field, dim, products, lie=False, weight=0):
    """A plain matching RB base over field whose product has x_i x_j = x_k
    for each (i, j): k of products, and the others zero (a bracket, if lie,
    with [x_j, x_i] = -x_k too), with a zero operator at weight."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), k in products.items():
        c[i][j][k] = 1
        if lie:
            c[j][i][k] = field.reduce(-1)
    kind, role = (PLAIN_LIE_MATCHING_RB, "bracket") if lie else \
        (PLAIN_ASSOC_MATCHING_RB, "dot")
    return make_doc(field, dim, ("a",), kind,
                    {role: BilinearMap.from_nested(field, c)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0] * dim] * dim)},
                        weights={"a": weight}))


NILPOTENT3 = {(0, 0): 1, (0, 1): 2, (1, 0): 2}           # x, x^2, x^3
DIAGONAL3 = {(0, 0): 0, (1, 1): 1, (2, 2): 2}            # F_p^3
UPPER3 = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}    # E11, E12, E22
HEISENBERG = {(0, 1): 2}                                 # x_0 x_1 = x_2


def _limit_sweep(spec, limits=None):
    """enumerate_docs(spec) under each of limits (default: 1 to one past
    the hit count) against one run of _brute_force: at limit L its first L
    hits, truncated where L is below the hit count, or is the count and the
    last hit is not the last matrix.  Returns the hit count."""
    hits, _ = _brute_force(spec)
    lines = [serialize_doc(d) for d in hits]
    n, top = len(hits), spec.base.field.p - 1
    maps = [] if not hits else hits[-1].operators.ops.values() \
        if spec.target == TARGET_RB_FAMILY else [hits[-1].twist]
    last = bool(maps) and all(m is not None and all(v == top for row in m.rows
                                                    for v in row) for m in maps)
    assert [serialize_doc(d) for d in enumerate_docs(spec)] == lines
    for limit in limits or range(1, n + 2):
        res = enumerate_docs(_limited(spec, limit))
        assert [serialize_doc(d) for d in res] == lines[:limit], limit
        assert res.truncated == (limit < n or limit == n and not last), limit
    return n


def _limited(spec, limit):
    """spec with its hit limit set to limit."""
    return SearchSpec(spec.base, spec.target, spec.omega_size, spec.weights, limit,
                      spec.budget)


def _reads_every_column(doc):
    c = doc.product().c
    return any({i, j} | {k for k, v in enumerate(c[i][j]) if v} == {0, 1, 2}
               for i, j in itertools.product(range(3), repeat=2))


def test_the_endomorphism_walk_matches_brute_force_under_every_limit():
    f3 = GF(3)
    nilpotent, diagonal, upper = (_plain_base(f3, 3, products)
                                  for products in (NILPOTENT3, DIAGONAL3, UPPER3))
    truncated = _n3_f3([[0, 0, 0], [1, 0, 0], [0, 2, 0]])    # k[x]/(x^3)
    heisenberg = _plain_base(f3, 3, HEISENBERG)
    assert _reads_every_column(heisenberg) and not _reads_every_column(upper)
    for base, hits in ((nilpotent, 27), (diagonal, 64), (upper, 27), (truncated, 10)):
        assert structure_ok(base)
        assert _limit_sweep(SearchSpec(base, TARGET_ENDOMORPHISM)) == hits
    # 189 hits: every limit up to 20, then every 19th, and the last three
    assert _limit_sweep(SearchSpec(heisenberg, TARGET_ENDOMORPHISM),
                        [*range(1, 21), *range(21, 187, 19), 188, 189, 190]) == 189


def _memo_loop(base, check):
    """Decide every dim-3 candidate of base over F_3 with check, one group
    of basis pairs at a time, a group being the pairs (i, j) that read the
    same columns {i, j} + supp(c[i][j]) of f, fewer than all three.  Each
    (group, columns) verdict is remembered, decided with f's other columns
    zero, and a candidate stops at its first failed group; the pairs that
    read every column are decided on each candidate that passes them all."""
    c = base.product().c
    groups = {}
    for i, j in itertools.product(range(3), repeat=2):
        reads = {i, j} | {k for k, v in enumerate(c[i][j]) if v}
        groups.setdefault(tuple(sorted(reads)), []).append((i, j))
    full = groups.pop((0, 1, 2), None)
    memo = {}
    for m in itertools.product(itertools.product(range(3), repeat=3), repeat=3):
        f = tuple(zip(*m))
        for cols, pairs in groups.items():
            key = cols, tuple(f[k] for k in cols)
            if key not in memo:
                part = [(0, 0, 0)] * 3
                for k in cols:
                    part[k] = f[k]
                memo[key] = check(tuple(part), pairs)
            if not memo[key]:
                break
        else:
            if full:
                check(f, full)


def _counting_decider(monkeypatch):
    """(calls, make): make(doc, tag=None) is candidate_check with a decider
    that appends the arguments of each decision to calls; the search makes
    its deciders through make too."""
    calls = []

    def make(doc, tag=None):
        decide = candidate_check(doc, tag)

        def counted(*args, **kw):
            calls.append((args, kw))
            return decide(*args, **kw)
        return None if decide is None else counted
    monkeypatch.setattr(halg.search, "candidate_check", make)
    return calls, make


def test_the_endomorphism_walk_asks_the_evaluator_once_per_table_entry(monkeypatch):
    calls, make = _counting_decider(monkeypatch)

    def counted(run):
        calls.clear()
        run()
        return len(calls)
    # the zero product reads the columns {i, j} at (i, j): three groups of
    # one column, 27 entries each, and three of two, 729 each; every
    # candidate is a hit, so every entry is filled once
    zero = SearchSpec(_plain_base(GF(3), 3, {}), TARGET_ENDOMORPHISM)
    assert counted(lambda: enumerate_docs(zero)) == 3 * 27 + 3 * 729 == 2268
    # on miss-heavy bases the walk fills a group's entry only for last rows
    # that pass the groups before it: the entries a loop over every
    # candidate fills, which stops at a candidate's first failed group
    for products, loop_calls in ((UPPER3, 530), (NILPOTENT3, 1660)):
        base = _plain_base(GF(3), 3, products)
        check = make(base, "endomorphism")
        assert counted(lambda: _memo_loop(base, check)) == loop_calls
        assert counted(lambda: enumerate_docs(SearchSpec(base, TARGET_ENDOMORPHISM))) \
            == loop_calls


# --- read sets, and the rb-family walk by label ---------------------------------

# (dim, products, lie): zero, nilpotent, F_p^dim and upper-triangular
# products at dims 2 and 3, the Heisenberg product and bracket, and aff2
_READ_SET_BASES = (
    (2, {}, False), (2, {(0, 0): 1}, False), (2, {(0, 0): 0, (1, 1): 1}, False),
    (2, {(0, 0): 0, (0, 1): 1}, False), (2, {(0, 1): 1}, True),
    (3, {}, False), (3, NILPOTENT3, False), (3, DIAGONAL3, False),
    (3, UPPER3, False), (3, HEISENBERG, False), (3, HEISENBERG, True))


def test_read_sets_bound_what_each_group_reads():
    # the walk decides a group with every column outside its key zero, so a
    # key must hold every column the group's law reads: re-drawing any other
    # column of seeded matrices never changes the group's verdict
    rng = random.Random(5)
    for field in (GF(2), GF(3)):
        def column(dim):
            # mostly zero entries, so that the verdicts vary
            return tuple(rng.choice((0, 0, 0, *range(1, field.p))) for _ in range(dim))
        for dim, products, lie in _READ_SET_BASES:
            for rb, weight in ((False, 0), (True, 0), (True, 1)):
                base = _plain_base(field, dim, products, lie, weight)
                if rb:
                    ok = candidate_check(base)
                    assert ok is not None

                    def check(f, points, ok=ok):
                        return ok({"a": f}, points=points)
                else:
                    check = candidate_check(base, "endomorphism")
                groups = _groups(base, rb)
                assert sorted(ix for pairs in groups.values() for ix in pairs) == \
                    list(itertools.product(range(dim), repeat=2))
                for cols, pairs in groups.items():
                    for _ in range(12):
                        f = [column(dim) for _ in range(dim)]
                        verdict = check(tuple(f), pairs)
                        for k in set(range(dim)) - set(cols):
                            g = list(f)
                            g[k] = column(dim)
                            assert check(tuple(g), pairs) == verdict, \
                                (field, products, rb, weight, cols, f, g)
                        g = [v if k in cols else (0,) * dim for k, v in enumerate(f)]
                        assert check(tuple(g), pairs) == verdict


def test_the_rb_walk_matches_the_per_label_loop_at_dim_3():
    # the per-label loop the walk replaced decides every matrix alone
    field = GF(3)
    rows = tuple(itertools.product(range(3), repeat=3))
    counts = []
    for products, lie in ((NILPOTENT3, False), (DIAGONAL3, False), (UPPER3, False),
                          (HEISENBERG, False), (HEISENBERG, True)):
        for w in (0, 1, 2):
            base = _plain_base(field, 3, products, lie, w)
            ok = candidate_check(base)
            loop = [m for m in itertools.product(rows, repeat=3)
                    if ok({"a": tuple(zip(*m))})]
            walked = enumerate_docs(rb_spec(base, 1, (w,)))
            assert [d.operators.ops["a"].rows for d in walked] == loop
            counts.append(len(loop))
    assert counts == [99, 18, 18, 1, 128, 128, 21, 84, 84, 189, 324, 324,
                      729, 810, 810]


def test_a_two_label_rb_search_matches_brute_force_under_every_limit():
    # the labels' hits, in product order, are cross-checked on the pairs
    # (a, b) with a != b, and limit and truncated read over that order
    assert _limit_sweep(rb_spec(_aff2_lie_f3(), 2, (0, 2))) == 72


# --- rb-family label tuples joined from pair verdicts ---------------------------

def _product_and_filter(spec):
    """The rb-family hits of spec, each a tuple of its labels' row tuples,
    from a plain loop: each label's matrices decided alone at (a, a), then
    every tuple of them, in product order, decided by ok over every label
    pair."""
    base = spec.base
    product, labels, weights, kind, role, twist = _rb_family_plan(spec)
    zero = LinearMap.from_rows(base.field, [[0] * base.dim] * base.dim)
    ok = candidate_check(make_doc(
        base.field, base.dim, labels, kind, {role: product},
        operators=OperatorFamily(dict.fromkeys(labels, zero), weights), twist=twist))
    if ok is None:
        return []
    rows = itertools.product(range(base.field.p), repeat=base.dim)
    matrices = list(itertools.product(tuple(rows), repeat=base.dim))
    alone = [[m for m in matrices if ok({lab: tuple(zip(*m))}, tuples=((lab, lab),))]
             for lab in labels]
    return [c for c in itertools.product(*alone)
            if ok({lab: tuple(zip(*m)) for lab, m in zip(labels, c)})]


def test_the_pair_join_matches_the_product_and_filter_loop_under_every_limit():
    # equal and distinct weights at two and three labels, over F_2 and F_3,
    # on the dual numbers, the zero product, the ground field, a twisted
    # base and a Lie base
    specs = []
    for name, weight_tuples in (
            ("N2-F2", ((0, 0), (0, 1), (0, 0, 0), (0, 1, 0))),
            ("N2-F3", ((0, 0), (0, 2), (0, 0, 0), (0, 1, 2))),
            ("Z2-F2", ((0, 0), (0, 1))),
            ("D1-F2", ((0, 0), (1, 0), (0, 0, 0), (1, 0, 1))),
            ("D1-F3", ((0, 1), (0, 0, 0), (0, 1, 2))),
            ("aff2-F2", ((1, 1), (0, 0, 0), (0, 1, 0))),
            ("aff2-F3", ((0, 0), (2, 1)))):
        specs += [rb_spec(catalog(name), len(w), w) for w in weight_tuples]
    specs += [rb_spec(_twisted_n2_f3(), len(w), w) for w in ((0, 1), (0, 0, 0), (0, 1, 0))]
    counts = []
    for spec in specs:
        loop = _product_and_filter(spec)
        labels = _rb_family_plan(spec)[1]
        top = spec.base.field.p - 1
        last = bool(loop) and all(v == top for m in loop[-1] for row in m for v in row)
        n = len(loop)
        for limit in range(1, n + 2):
            res = enumerate_docs(_limited(spec, limit))
            assert [tuple(d.operators.ops[lab].rows for lab in labels)
                    for d in res] == loop[:limit], (spec, limit)
            assert res.truncated == (limit < n or limit == n and not last), (spec, limit)
        counts.append(n)
    assert counts == [4, 4, 8, 4, 9, 4, 27, 4, 256, 256, 1, 2, 1, 2, 2, 1, 2,
                      22, 36, 46, 57, 72, 14, 105, 14]


def test_the_rb_search_walks_each_weight_once_and_decides_each_pair_once(monkeypatch):
    # the labels of one weight share one walk, and the instance at (a, b),
    # which reads P_a, P_b and w_b alone, is decided once per such triple
    calls, _ = _counting_decider(monkeypatch)
    walks = []
    real_walk = halg.search._walk
    monkeypatch.setattr(halg.search, "_walk",
                        lambda *args: walks.append(1) or real_walk(*args))

    def run(base, weights):
        """(hits, walks, decisions at (a, a), decisions at (a, b), a != b),
        after asserting that no (P_a, P_b, w_b) was decided twice."""
        calls.clear()
        walks.clear()
        spec = rb_spec(base, len(weights), weights)
        label_weights = _rb_family_plan(spec)[2]
        hits = len(enumerate_docs(spec))
        pairs, alone = [], 0
        for args, kw in calls:
            candidate, ((a, b),) = args[0], kw.get("tuples") or args[2]
            if a == b:
                alone += 1
            else:
                pairs.append((candidate[a], candidate[b], label_weights[b]))
        assert len(pairs) == len(set(pairs)), (base, weights)
        return hits, len(walks), alone, len(pairs)

    n2, hom = catalog("N2-F3"), _twisted_n2_f3()
    one = run(n2, (0,))
    assert run(n2, (0, 0)) == (9, 1, one[2], 9)
    assert run(n2, (0, 0, 0))[1:3] == (1, one[2])
    assert run(n2, (0, 1))[1] == run(n2, (0, 1, 0))[1] == 2
    assert run(n2, (0, 1, 2))[1] == 3
    assert run(hom, (0, 0, 0))[:2] == (105, 1)
    # every family of the zero product is a hit: the 16 x 16 matrix pairs
    # are decided once per weight of their second label
    assert run(catalog("Z2-F2"), (0, 1, 0)) == (4096, 2, run(catalog("Z2-F2"), (0,))[2]
                                                + run(catalog("Z2-F2"), (1,))[2],
                                                16 * 16 * 2)


# Omega = 3 hit streams: the count and sha256 of one serialized doc and a
# newline per hit
OMEGA3_PINS = (
    ("N2-F3", (0, 0, 0), 27,
     "9bb1db816e1edca12d12130af635cefa8faea419fddb6111ef3a5ff99a6bf0e1"),
    ("N2-F3", (0, 1, 2), 4,
     "ed9f17cb9dde4bb8a015b0246976c71295b3c64f6ff35685f6c0f43ecb9677d2"),
    ("Z2-F2", (0, 1, 0), 4096,
     "22163f0559a9c10fb6aed95d9eb556b50ab80b31f9bc8e3e0a48918ee983da80"),
    ("hom-N2-F3", (0, 0, 0), 105,
     "be1742ff4263158e65bca6e6ca9b0eefd7048fbdb1b9fe9a12010b22a7078883"),
)


def test_the_walk_leaves_its_groups_as_they_are():
    # N2's rb groups: (1, 1) reads column 1 alone, the rest read every column
    groups = _groups(catalog("N2-F3"), rb=True)
    before = {cols: list(pairs) for cols, pairs in groups.items()}
    assert set(groups) == {(1,), (0, 1)}
    assert len(list(_walk(3, 2, groups, lambda f, pairs: True))) == 3 ** 4
    assert groups == before


def test_an_rb_search_makes_one_operator_per_distinct_matrix(monkeypatch):
    # the hits share each distinct operator matrix's LinearMap, where one
    # was made per label per hit (12288 for the 4096 hits of Z2-F2 at
    # weights (0, 1, 0)); their bytes are pinned below
    real = halg.search.LinearMap
    for name, weights, hits in (("Z2-F2", (0, 1, 0), 4096), ("Z2-F2", (0, 1), 256),
                                ("N2-F3", (0, 1, 2), 4), ("N2-F3", (0, 0), 9)):
        stream, made = search_hits(rb_spec(catalog(name), len(weights), weights)), []
        monkeypatch.setattr(halg.search, "LinearMap",
                            lambda field, m: made.append(m) or real(field, m))
        docs = list(stream)
        monkeypatch.setattr(halg.search, "LinearMap", real)
        ops = [op for doc in docs for op in doc.operators.ops.values()]
        distinct = {op.rows for op in ops}
        assert len(docs) == hits and len(made) <= len(distinct), (name, weights)
        assert set(made) == distinct and len(set(map(id, ops))) == len(distinct)


def test_three_label_hit_streams_are_pinned():
    for name, weights, hits, digest in OMEGA3_PINS:
        base = _twisted_n2_f3() if name == "hom-N2-F3" else catalog(name)
        res = enumerate_docs(rb_spec(base, 3, weights))
        assert len(res) == hits and not res.truncated, name
        assert hashlib.sha256(b"".join(serialize_doc(d) + b"\n" for d in res)
                              ).hexdigest() == digest, (name, weights)
