"""Enumeration, sampling, and the fixture catalog.

The exact hit counts here were computed by the first enumeration runs and
frozen; a change in any of them means the search order or the identity
checks moved.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest

from halg import (GF, BilinearMap, BudgetExceededError, LinearMap,
                  NonFiniteFieldError, OperatorFamily, ParamError,
                  PreconditionFailed, SearchSpec, TARGET_COMMUTING,
                  TARGET_ENDOMORPHISM, TARGET_RB_FAMILY, TheoremCheckError,
                  UnknownFixtureError, catalog, check_side_conditions,
                  enumerate_docs, fixture_names, make_doc, parse_doc,
                  seeded_sample, serialize_doc, structure_ok, validate_doc,
                  yau_twist)
import halg.search
from halg.axioms import candidate_check
from halg.errors import ZeroDenominatorError
from halg.search import (_rb_family_plan, check_sample_size, sample_hits,
                         search_hits)
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


def test_candidate_tables_serve_the_endomorphism_law_only():
    # the tables key each pair by the columns the endomorphism law reads
    with pytest.raises(ParamError):
        candidate_check(catalog("N2-Pnil-w0-F3"), "commutes")


def test_candidate_tables_decide_over_a_prime_field_only():
    # a candidate is bound as it comes, which is exact only where frames
    # bind D = 1: over F_p
    for tag in (None, "endomorphism"):
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
