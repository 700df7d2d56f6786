"""Scalar arithmetic: canonical forms, inverses, parsing, serialization."""

import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halg import GF, QQ, DocSyntaxError, Field, ShapeError
from halg.fields import _is_prime, field_from_jsonable, field_to_jsonable

PRIMES = (2, 3, 5, 7)


def rational_scalars():
    return st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
    )


def test_field_construction_rejects_bad_moduli():
    for bad in (0, 1, 4, 6, -3, "5", 5.0, True):
        with pytest.raises(ShapeError):
            Field("prime-field", bad)
    with pytest.raises(ShapeError):
        Field("rationals", 5)
    with pytest.raises(ShapeError):
        Field("galois", 5)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_primality_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


def test_large_moduli_are_decided_at_once_and_bounded():
    for carmichael in (561, 41041):
        with pytest.raises(ShapeError) as exc:
            Field("prime-field", carmichael)
        assert exc.value.path == "field.p"
    start = time.perf_counter()
    mersenne = field_from_jsonable({"kind": "prime-field", "p": 2 ** 61 - 1})
    assert GF(2 ** 64 - 59).p == 2 ** 64 - 59   # the largest prime below 2^64
    assert time.perf_counter() - start < 1
    assert mersenne.inv(2) * 2 % mersenne.p == 1
    for big in (2 ** 64 + 13, 2 ** 64):
        with pytest.raises(ShapeError) as exc:
            field_from_jsonable({"kind": "prime-field", "p": big})
        assert exc.value.path == "field.p"


def test_reduce_canonicalizes():
    assert QQ.reduce(Fraction(4, 2)) == 2
    assert isinstance(QQ.reduce(Fraction(4, 2)), int)
    assert QQ.reduce(Fraction(1, 2)) == Fraction(1, 2)
    assert QQ.reduce(7) == 7
    f5 = GF(5)
    assert f5.reduce(-1) == 4
    assert f5.reduce(12) == 2


def test_prime_field_inverses():
    for p in PRIMES:
        f = GF(p)
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.inv(p)


def test_rational_inverse_and_div():
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(Fraction(-3, 4)) == Fraction(-4, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_parse_scalar_strings_and_ints():
    assert QQ.parse_scalar("3/4") == Fraction(3, 4)
    assert QQ.parse_scalar("-6/4") == Fraction(-3, 2)
    assert QQ.parse_scalar("7") == 7
    assert QQ.parse_scalar(-2) == -2
    f5 = GF(5)
    # 3/4 = 3 * 4^{-1} = 3 * 4 = 12 = 2 (mod 5)
    assert f5.parse_scalar("3/4") == 2
    assert f5.parse_scalar(9) == 4


def test_parse_scalar_rejections():
    for bad in (True, False, 1.5, [1], None):
        with pytest.raises(ShapeError):
            QQ.parse_scalar(bad)
    with pytest.raises(ShapeError):
        QQ.parse_scalar("1/0")
    with pytest.raises(ShapeError):
        QQ.parse_scalar("a/b")
    with pytest.raises(ZeroDivisionError):
        GF(3).parse_scalar("1/3")  # denominator vanishes mod 3


def test_random_scalar_only_on_prime_fields():
    import random
    rng = random.Random(0)
    assert all(GF(7).random_scalar(rng) in range(7) for _ in range(50))
    with pytest.raises(DocSyntaxError):
        QQ.random_scalar(rng)


def test_field_jsonable_round_trip():
    for f in (QQ, GF(2), GF(13)):
        assert field_from_jsonable(field_to_jsonable(f)) == f
    with pytest.raises(ShapeError):
        field_from_jsonable({"kind": "rationals", "p": 3})
    with pytest.raises(ShapeError):
        field_from_jsonable({"kind": "prime-field", "p": 5, "q": 7})
    with pytest.raises(ShapeError):
        field_from_jsonable(["rationals"])


@given(rational_scalars())
def test_format_parse_identity_rationals(v):
    v = QQ.reduce(v)
    assert QQ.parse_scalar(QQ.format_scalar(v)) == v


@given(st.sampled_from(PRIMES), st.integers(-200, 200))
def test_format_parse_identity_prime(p, raw):
    f = GF(p)
    v = f.reduce(raw)
    assert f.parse_scalar(f.format_scalar(v)) == v


@given(rational_scalars(), rational_scalars())
def test_field_ops_match_exact_arithmetic(a, b):
    assert QQ.mul(a, b) == a * b


@given(st.sampled_from(PRIMES), st.integers(-40, 40), st.integers(-40, 40))
def test_prime_ops_are_residues(p, a, b):
    f = GF(p)
    assert f.mul(a, b) == (a * b) % p
    assert f.neg(a) == (-a) % p


def test_denominator_divisible_by_p_is_a_shape_error_with_path():
    for raw in ("1/3", "2/6", "-5/9"):
        with pytest.raises(ShapeError) as exc:
            GF(3).parse_scalar(raw, "families.dot[0][1][0]")
        assert exc.value.path == "families.dot[0][1][0]"
    assert GF(3).parse_scalar("6/6") == 1  # the fraction 1 has a value mod 3
    assert GF(5).parse_scalar("1/3") == 2
