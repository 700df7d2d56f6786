"""Exact linear algebra: maps, tensors, and the surgery the constructions use.

Oracle values are computed by hand on the dual numbers N2 = span{u, t} with
u the unit and t^2 = 0 (structure constants c[0][0][0] = c[0][1][1] =
c[1][0][1] = 1), and on the nilpotent map P: u -> t, t -> 0.
"""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halg import (GF, QQ, BilinearMap, DimensionMismatch, FieldMismatch,
                  LinearMap, ShapeError, SingularMapError, apply_map,
                  bilinear_apply, kernel_vector, map_compose, map_invert,
                  map_power, postcompose, precompose_left, precompose_right,
                  tensor_combine, tensor_transpose)
from halg.errors import ZeroDenominatorError
from halg.linalg import bilinear_raw, sparse_tensor

N2 = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
PNIL = [[0, 0], [1, 0]]


def n2(field=QQ):
    return BilinearMap.from_nested(field, N2)


def pnil(field=QQ):
    return LinearMap.from_rows(field, PNIL)


def test_apply_map_matches_columns():
    f = LinearMap.from_rows(QQ, [[1, 1], [0, 1]])
    assert apply_map(f, (0, 1)) == (1, 1)
    assert apply_map(f, (1, 0)) == (1, 0)
    assert f.column(1) == (1, 1)
    with pytest.raises(DimensionMismatch):
        apply_map(f, (1, 0, 0))


def test_from_rows_shape_errors():
    with pytest.raises(ShapeError):
        LinearMap.from_rows(QQ, [])
    with pytest.raises(ShapeError):
        LinearMap.from_rows(QQ, [[1, 0], [1]])
    with pytest.raises(ShapeError):
        LinearMap.from_rows(QQ, "rows")


def test_entries_are_made_canonical_or_refused_at_their_path():
    assert LinearMap.from_rows(GF(3), [[Fraction(1, 2), 4], [-1, 0]]).rows == ((2, 1), (2, 0))
    assert LinearMap.from_rows(QQ, [[Fraction(4, 2)]]).rows == ((2,),)
    assert type(LinearMap.from_rows(QQ, [[Fraction(4, 2)]]).rows[0][0]) is int
    assert BilinearMap.from_nested(GF(5), [[[Fraction(1, 2)]]]).c == (((3,),),)
    with pytest.raises(ZeroDenominatorError) as exc:
        LinearMap.from_rows(GF(2), [[1, 0], [0, Fraction(1, 2)]])
    assert exc.value.path == "map[1][1]"
    with pytest.raises(ZeroDenominatorError) as exc:
        BilinearMap.from_nested(GF(3), [[[Fraction(2, 3)]]], "dot")
    assert exc.value.path == "dot[0][0][0]"
    for bad in (0.5, True, "1", None):
        with pytest.raises(ShapeError) as exc:
            LinearMap.from_rows(QQ, [[0, 0], [bad, 0]])
        assert exc.value.path == "map[1][0]"
        with pytest.raises(ShapeError) as exc:
            BilinearMap.from_nested(GF(5), [[[0, 0], [0, 0]], [[0, 0], [0, bad]]])
        assert exc.value.path == "tensor[1][1][1]"


def test_square_of_one_plus_t_in_dual_numbers():
    # (u + t)^2 = u + 2t
    assert bilinear_apply(n2(), (1, 1), (1, 1)) == (1, 2)
    # and mod 2 the cross terms cancel
    assert bilinear_apply(n2(GF(2)), (1, 1), (1, 1)) == (1, 0)


def test_nilpotent_squares_to_zero():
    p = pnil()
    assert map_compose(p, p).rows == ((0, 0), (0, 0))
    assert not p.is_identity()
    assert LinearMap.identity(QQ, 2).is_identity()
    # ragged rows are not the identity, even when every entry present fits
    assert not LinearMap(QQ, ((1,), (0, 1))).is_identity()
    assert not LinearMap(QQ, ((1, 0, 0), (0, 1, 0))).is_identity()


def test_map_power():
    d = LinearMap.from_rows(QQ, [[1, 0], [0, 2]])
    assert map_power(d, 5).rows == ((1, 0), (0, 32))
    assert map_power(d, 0).is_identity()
    with pytest.raises(ShapeError):
        map_power(d, -1)


def test_map_invert_oracle():
    f = LinearMap.from_rows(QQ, [[1, 1], [0, 1]])
    assert map_invert(f).rows == ((1, -1), (0, 1))
    assert map_invert(LinearMap.from_rows(QQ, [[2]])).rows == ((Fraction(1, 2),),)
    with pytest.raises(SingularMapError):
        map_invert(LinearMap.from_rows(QQ, [[1, 1], [1, 1]]))
    with pytest.raises(SingularMapError):
        map_invert(pnil())


def test_kernel_vector_witnesses():
    v = kernel_vector(LinearMap.from_rows(QQ, [[1, 1], [1, 1]]))
    assert v is not None and v != (0, 0)
    assert apply_map(LinearMap.from_rows(QQ, [[1, 1], [1, 1]]), v) == (0, 0)
    assert kernel_vector(LinearMap.identity(QQ, 3)) is None
    assert kernel_vector(pnil()) == (0, 1)


def test_field_and_dim_mismatches():
    with pytest.raises(FieldMismatch):
        map_compose(pnil(), pnil(GF(2)))
    with pytest.raises(DimensionMismatch):
        map_compose(pnil(), LinearMap.identity(QQ, 3))
    with pytest.raises(FieldMismatch):
        postcompose(n2(), pnil(GF(2)))
    with pytest.raises(DimensionMismatch):
        bilinear_apply(n2(), (1, 0, 0), (0, 1))


def test_tensor_surgery_on_dual_numbers():
    dot = n2()
    scale = LinearMap.from_rows(QQ, [[1, 0], [0, 2]])
    # p(u.t) = 2t
    assert postcompose(dot, scale).c[0][1] == (0, 2)
    # P(u).u = t.u = t and P(t).y = 0
    left = precompose_left(dot, pnil())
    assert left.c[0][0] == (0, 1)
    assert left.c[1] == ((0, 0), (0, 0))
    # u.P(u) = u.t = t and x.P(t) = 0
    right = precompose_right(dot, pnil())
    assert right.c[0][0] == (0, 1)
    assert right.c[0][1] == (0, 0)
    assert right.c[1][0] == (0, 0)


def test_commutative_tensor_antisymmetrizes_to_zero():
    dot = n2()
    zero = tensor_combine(QQ, [(1, dot), (-1, tensor_transpose(dot))])
    assert zero == BilinearMap.zero(QQ, 2)


def test_transpose_of_alternating_bracket_negates():
    br = BilinearMap.from_nested(QQ, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    assert tensor_transpose(br) == tensor_combine(QQ, [(-1, br)])


def test_tensor_combine_rejects_empty_and_mixed():
    with pytest.raises(ShapeError):
        tensor_combine(QQ, [])
    with pytest.raises(FieldMismatch):
        tensor_combine(QQ, [(1, n2()), (1, n2(GF(2)))])
    with pytest.raises(DimensionMismatch):
        tensor_combine(QQ, [(1, n2()), (1, BilinearMap.zero(QQ, 3))])


def vectors(p, dim):
    return st.tuples(*[st.integers(0, p - 1) for _ in range(dim)])


def tensors(p, dim):
    entry = st.integers(0, p - 1)
    row = st.tuples(*[entry] * dim)
    plane = st.tuples(*[row] * dim)
    return st.tuples(*[plane] * dim).map(
        lambda c: BilinearMap.from_nested(GF(p), [list(map(list, pl)) for pl in c]))


def matrices(p, dim):
    entry = st.integers(0, p - 1)
    row = st.tuples(*[entry] * dim)
    return st.tuples(*[row] * dim).map(
        lambda rs: LinearMap.from_rows(GF(p), [list(r) for r in rs]))


@given(tensors(5, 3), vectors(5, 3), vectors(5, 3), vectors(5, 3),
       st.integers(0, 4), st.integers(0, 4))
def test_bilinear_apply_is_bilinear(m, x, y, z, a, b):
    f = GF(5)
    ax_by = tuple(f.reduce(a * xi + b * yi) for xi, yi in zip(x, y))
    lhs = bilinear_apply(m, ax_by, z)
    rx = bilinear_apply(m, x, z)
    ry = bilinear_apply(m, y, z)
    assert lhs == tuple(f.reduce(a * r1 + b * r2) for r1, r2 in zip(rx, ry))


@given(matrices(5, 2), matrices(5, 2), vectors(5, 2))
def test_compose_agrees_with_sequential_apply(f, g, x):
    assert apply_map(map_compose(f, g), x) == apply_map(f, apply_map(g, x))


@given(matrices(7, 2))
def test_invert_is_two_sided_when_defined(f):
    if kernel_vector(f) is None:
        inv = map_invert(f)
        assert map_compose(f, inv).is_identity()
        assert map_compose(inv, f).is_identity()
    else:
        with pytest.raises(SingularMapError):
            map_invert(f)


@given(st.data(), st.sampled_from([GF(3), QQ]), st.integers(2, 3))
def test_surgery_matches_pointwise_definition(data, field, dim):
    m = BilinearMap.from_nested(field, data.draw(nested(field, (dim, dim, dim))))
    f = LinearMap.from_rows(field, data.draw(nested(field, (dim, dim))))
    x, y = (tuple(data.draw(nested(field, (dim,)))) for _ in range(2))
    assert bilinear_apply(postcompose(m, f), x, y) == apply_map(f, bilinear_apply(m, x, y))
    assert bilinear_apply(precompose_left(m, f), x, y) == bilinear_apply(m, apply_map(f, x), y)
    assert bilinear_apply(precompose_right(m, f), x, y) == bilinear_apply(m, x, apply_map(f, y))
    assert bilinear_apply(tensor_transpose(m), x, y) == bilinear_apply(m, y, x)


# --- kernel parity: the kernels against the textbook sums -----------------------

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def scalars(field):
    """Canonical scalars of field, zero drawn often."""
    if field.is_prime_field:
        return st.one_of(st.just(0), st.integers(0, field.p - 1))
    return st.one_of(st.just(0), st.integers(-6, 6),
                     st.fractions(-6, 6, max_denominator=7).map(QQ.reduce))


@st.composite
def field_dim(draw):
    return draw(st.sampled_from(FIELDS)), draw(st.integers(1, 4))


def nested(field, shape):
    entry = scalars(field)
    for n in reversed(shape):
        entry = st.lists(entry, min_size=n, max_size=n)
    return entry


def zero_planes(c, data):
    """c with a drawn set of its planes c[i] made all zero."""
    dim = len(c)
    zeros = data.draw(st.sets(st.integers(0, dim - 1)))
    return [[[0] * dim for _ in range(dim)] if i in zeros else plane
            for i, plane in enumerate(c)]


def dense(s):
    """The tensor whose sparse form is s."""
    dim = len(s)
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, rows in enumerate(s):
        for j, entries in rows:
            for k, v in entries:
                c[i][j][k] = v
    return c


@given(st.data(), field_dim())
def test_apply_map_is_the_row_sum(data, fd):
    field, dim = fd
    rows = data.draw(nested(field, (dim, dim)))
    x = tuple(data.draw(nested(field, (dim,))))
    expected = tuple(field.reduce(sum(rows[i][j] * x[j] for j in range(dim)))
                     for i in range(dim))
    assert apply_map(LinearMap.from_rows(field, rows), x) == expected


@given(st.data(), field_dim())
def test_bilinear_apply_is_the_double_sum(data, fd):
    """bilinear_apply and the sparse kernel under it, all-zero planes
    included, against the textbook sum."""
    field, dim = fd
    c = zero_planes(data.draw(nested(field, (dim, dim, dim))), data)
    x = tuple(data.draw(nested(field, (dim,))))
    y = tuple(data.draw(nested(field, (dim,))))
    raw = [sum(x[i] * y[j] * c[i][j][k] for i in range(dim) for j in range(dim))
           for k in range(dim)]
    m = BilinearMap.from_nested(field, c)
    assert bilinear_raw(sparse_tensor(m.c), x, y) == raw
    assert bilinear_apply(m, x, y) == tuple(map(field.reduce, raw))


@given(st.data(), field_dim())
def test_sparse_form_rebuilds_the_tensor(data, fd):
    field, dim = fd
    c = BilinearMap.from_nested(
        field, zero_planes(data.draw(nested(field, (dim, dim, dim))), data)).c
    s = sparse_tensor(c)
    assert dense(s) == [[list(row) for row in plane] for plane in c]
    assert all(v for rows in s for _, entries in rows for _, v in entries)
    assert all(entries for rows in s for _, entries in rows)


def test_module_examples_run():
    import halg.linalg
    result = doctest.testmod(halg.linalg)
    assert result.attempted > 0 and result.failed == 0
