"""Enumeration, sampling, and the fixture catalog.

The exact hit counts here were computed by the first enumeration runs and
frozen; a change in any of them means the search order or the identity
checks moved.
"""

import pytest

from halg import (GF, BilinearMap, BudgetExceededError, LinearMap,
                  NonFiniteFieldError, OperatorFamily, ParamError,
                  PreconditionFailed, SearchSpec, TARGET_COMMUTING,
                  TARGET_ENDOMORPHISM, TARGET_RB_FAMILY, UnknownFixtureError,
                  catalog, enumerate_docs, fixture_names, make_doc,
                  seeded_sample, serialize_doc, structure_ok, worker_count,
                  yau_twist)
from halg.structures import (HOM_ASSOC_MATCHING_RB, MATCHING_HOM_ASSOC,
                             MATCHING_HOM_DENDRIFORM, PLAIN_ASSOC_MATCHING_RB)


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


def test_seeded_sample_is_deterministic():
    spec = rb_spec(catalog("Z2-F2"), 1, (0,))
    one = seeded_sample(spec, seed=42, count=10)
    two = seeded_sample(spec, seed=42, count=10)
    assert len(one) == 10 and not one.truncated
    assert [serialize_doc(d) for d in one] == [serialize_doc(d) for d in two]
    assert all(structure_ok(d) for d in one)


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


def test_worker_count_parses_the_environment(monkeypatch):
    monkeypatch.delenv("HALG_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("HALG_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("HALG_THREADS", "0")
    with pytest.raises(ParamError):
        worker_count()
    monkeypatch.setenv("HALG_THREADS", "lots")
    with pytest.raises(ParamError):
        worker_count()


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
