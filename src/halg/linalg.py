"""Linear and bilinear maps on a finite-dimensional carrier, exactly.

A `LinearMap` is a square matrix over a `Field`; column ``j`` is the image of
the basis vector ``e_j``.  A `BilinearMap` is a structure-constant tensor
``c[i][j][k]`` meaning ``e_i * e_j = sum_k c[i][j][k] e_k``.  Vectors are
tuples of scalars.  All operations are exact and total on valid shapes;
inverting a singular map raises instead of approximating.

The bilinear kernel, `bilinear_raw`, reads a tensor in its sparse form
(`sparse_tensor`): per i, only the rows c[i][j] that are not zero, each as
its nonzero (k, c[i][j][k]) entries.  Most structure constants in use are
mostly zero, so the kernel walks only the entries that can contribute; a
caller that multiplies through one tensor many times makes the form once.
The linear kernel, `apply_raw`, likewise skips zero coefficients.  Maps
compose through it; every derived tensor is a row that axioms.fill runs on
these kernels, and `tensor_combine` is the one pointwise sum.

>>> from .fields import QQ
>>> f = LinearMap.from_rows(QQ, [[1, 1], [0, 1]])
>>> apply_map(f, (0, 1))
(1, 1)
>>> map_invert(f).rows
((1, -1), (0, 1))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .errors import (DimensionMismatch, FieldMismatch, ParamError, ShapeError,
                     SingularMapError, require, require_int)
from .fields import Field

Vector = tuple
_ARRAY = (list, tuple)


def read_array(raw, depth: int, path: str, read) -> tuple:
    """raw, non-empty arrays (lists or tuples) nested depth deep, as nested
    tuples of read(leaf, its path); ShapeError at the path of anything
    else.  Lengths are left to check_map."""
    if not isinstance(raw, _ARRAY) or not raw:
        raise ShapeError("expected a non-empty array", path)
    if depth == 1:
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(raw))
    return tuple(read_array(v, depth - 1, f"{path}[{i}]", read)
                 for i, v in enumerate(raw))


def check_map(m, cls, field: Field, dim: int, path: str) -> None:
    """The one rule for every matrix and tensor halg reads: m is a cls
    (LinearMap or BilinearMap) over field whose data is a dim x dim (x dim)
    array of canonical scalars of field.  Raises ShapeError at the first
    offending path otherwise."""
    if not isinstance(m, cls):
        raise ShapeError(f"expected a {cls.__name__}", path)
    if m.field is not field and m.field != field:
        raise ShapeError(f"{cls.__name__} over the wrong field", path)
    if cls is LinearMap:
        matrices = ((path, m.rows),)
    else:
        if not isinstance(m.c, _ARRAY) or len(m.c) != dim:
            raise _size_error(m.c, dim, path)
        matrices = [(f"{path}[{i}]", plane) for i, plane in enumerate(m.c)]
    noncanonical = field.first_noncanonical
    for at, rows in matrices:
        if not isinstance(rows, _ARRAY) or len(rows) != dim:
            raise _size_error(rows, dim, at)
        for i, row in enumerate(rows):
            if not isinstance(row, _ARRAY) or len(row) != dim:
                raise _size_error(row, dim, f"{at}[{i}]")
            j = noncanonical(row)
            if j is not None:
                raise ShapeError(f"entry {row[j]!r} is not a canonical scalar",
                                 f"{at}[{i}][{j}]")


def check_own(m, cls, path: str) -> None:
    """The one rule for a map or tensor argument read on its own: m is a cls
    (else a ParamError naming path) over a Field (else a ParamError naming
    path.field) whose data is an array (else a ShapeError at path) of dim
    at least 1 (else a ParamError naming path, as LinearMap.identity and
    BilinearMap.zero refuse dim 0) and obeys check_map at path, at its own
    field and dim."""
    require(m, cls, path)
    require(m.field, Field, f"{path}.field")
    data = m.rows if cls is LinearMap else m.c
    if not isinstance(data, _ARRAY):
        raise ShapeError("expected an array", path)
    if not data:
        raise ParamError(f"{path}: dim must be at least 1, got 0")
    check_map(m, cls, m.field, len(data), path)


def check_operand(f, field: Field, dim: int, path: str, mismatch: str) -> None:
    """The one rule for a map argument read beside a doc or a tensor that
    fixes its field and dim: f is a LinearMap (else a ParamError naming
    path), over field (else a FieldMismatch), with dim rows (else a
    DimensionMismatch saying mismatch), and obeys check_map at path."""
    require(f, LinearMap, path)
    if f.field != field:
        raise FieldMismatch(f"{path} map over the wrong field")
    if isinstance(f.rows, _ARRAY) and len(f.rows) != dim:
        raise DimensionMismatch(mismatch)
    check_map(f, LinearMap, field, dim, path)


def _require_dim(dim) -> None:
    """Raise ParamError unless dim is an int (not a bool) of at least 1."""
    require_int(dim, "dim")
    if dim < 1:
        raise ParamError(f"dim must be at least 1, got {dim}")


def _vector(x, field: Field, path: str) -> Vector:
    """x, a list or tuple, with each entry made canonical in field (errors
    name the entry's path); ShapeError at path for anything else."""
    if not isinstance(x, _ARRAY):
        raise ShapeError(f"expected a vector (a list or tuple), got {type(x).__name__}",
                         path)
    return tuple(field.canonical(v, f"{path}[{i}]") for i, v in enumerate(x))


def _size_error(a, dim: int, path: str) -> ShapeError:
    got = len(a) if isinstance(a, _ARRAY) else type(a).__name__
    return ShapeError(f"expected {dim} entries, got {got}", path)


@dataclass(frozen=True)
class LinearMap:
    """Square matrix over `field`; rows[i][j] is the e_i coefficient of f(e_j)."""

    field: Field
    rows: tuple

    @staticmethod
    def from_rows(field: Field, rows, path: str = "map") -> "LinearMap":
        """The map with these rows, each entry made canonical by
        `Field.canonical` (errors name the entry's path)."""
        require(field, Field, "field")
        m = LinearMap(field, read_array(rows, 2, path, field.canonical))
        check_map(m, LinearMap, field, m.dim, path)
        return m

    @staticmethod
    def identity(field: Field, dim: int) -> "LinearMap":
        require(field, Field, "field")
        _require_dim(dim)
        one, zero = field.one, field.zero
        return LinearMap(field, tuple(tuple(one if i == j else zero for j in range(dim))
                                      for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_identity(self) -> bool:
        """Whether rows are the dim x dim identity (ragged rows are not)."""
        return tuple(map(tuple, self.rows)) == _basis(self.dim)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple:
        return tuple(zip(*self.rows))


@lru_cache(maxsize=32)
def _basis(dim):
    return tuple(tuple(int(i == k) for i in range(dim)) for k in range(dim))


def apply_raw(cols, x) -> list:
    """Unreduced image of x under the map whose columns are cols: the sum of
    x[j] * cols[j], skipping zero coefficients of x and zero entries of the
    columns, so a basis-vector argument costs O(dim)."""
    out = [0] * len(cols)
    for j, xj in enumerate(x):
        if not xj:
            continue
        for k, s in enumerate(cols[j]):
            if s:
                out[k] += xj * s
    return out


def apply_map(f: LinearMap, x: Sequence) -> Vector:
    """f(x) for a coefficient vector x: a list or tuple of scalars of f's
    field."""
    check_own(f, LinearMap, "f")
    x = _vector(x, f.field, "x")
    if len(x) != f.dim:
        raise DimensionMismatch(f"vector of length {len(x)} under a dim-{f.dim} map")
    return _apply(f, x)


def _apply(f: LinearMap, x) -> Vector:
    """apply_map on a map already checked and a canonical vector of its
    dim."""
    return tuple(map(f.field.reduce, apply_raw(f.columns(), x)))


def map_compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """The map x -> f(g(x))."""
    check_own(f, LinearMap, "f")
    check_own(g, LinearMap, "g")
    if f.field != g.field:
        raise FieldMismatch("composing maps over different fields")
    if f.dim != g.dim:
        raise DimensionMismatch(f"composing dim {f.dim} with dim {g.dim}")
    return _compose(f, g)


def _compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """map_compose on maps already checked."""
    red = f.field.reduce
    fc = f.columns()
    cols = [map(red, apply_raw(fc, gc)) for gc in g.columns()]
    return LinearMap(f.field, tuple(zip(*cols)))


def map_power(f: LinearMap, n: int) -> LinearMap:
    """f composed with itself n times (n = 0 gives the identity)."""
    check_own(f, LinearMap, "f")
    require_int(n, "power")
    if n < 0:
        raise ShapeError("negative power", "map")
    return _power(f, n)


def _power(f: LinearMap, n: int) -> LinearMap:
    """map_power on a map already checked and a power n >= 0."""
    acc = LinearMap.identity(f.field, f.dim)
    base = f
    while n:
        if n & 1:
            acc = _compose(acc, base)
        n >>= 1
        if n:
            base = _compose(base, base)
    return acc


def _echelon(field: Field, rows: list) -> tuple:
    """Row-reduce in place; returns (rank, pivot column list)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [field.reduce(a - factor * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return r, pivots


def map_invert(f: LinearMap) -> LinearMap:
    """Exact inverse; raises SingularMapError when none exists."""
    check_own(f, LinearMap, "f")
    return _invert(f)


def _invert(f: LinearMap) -> LinearMap:
    """map_invert on a map already checked."""
    n = f.dim
    field = f.field
    aug = [list(f.rows[i]) + [field.one if j == i else field.zero for j in range(n)]
           for i in range(n)]
    rank, pivots = _echelon(field, aug)
    if rank < n or pivots != list(range(n)):
        raise SingularMapError("map has no inverse")
    return LinearMap(field, tuple(tuple(aug[i][n:]) for i in range(n)))


def kernel_vector(f: LinearMap):
    """A canonical nonzero kernel vector, or None when f is injective.

    Used to witness failed invertibility checks: the returned v satisfies
    f(v) = 0 with v != 0.
    """
    check_own(f, LinearMap, "f")
    return _kernel_vector(f)


def _kernel_vector(f: LinearMap):
    """kernel_vector on a map already checked."""
    basis = null_space(f.field, [list(r) for r in f.rows], f.dim)
    return tuple(basis[0]) if basis else None


def null_space(field: Field, rows: list, n_cols: int) -> list:
    """A basis of the solutions v of rows . v = 0, in n_cols unknowns: one
    vector per column without a pivot, which is 1 there and 0 at every other
    such column.  Row-reduces rows in place."""
    _, pivots = _echelon(field, rows)
    basis = []
    for c in range(n_cols):
        if c in pivots:
            continue
        v = [field.zero] * n_cols
        v[c] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][c])
        basis.append(v)
    return basis


@dataclass(frozen=True)
class BilinearMap:
    """Structure constants c[i][j][k]: e_i * e_j = sum_k c[i][j][k] e_k."""

    field: Field
    c: tuple

    @staticmethod
    def from_nested(field: Field, c, path: str = "tensor") -> "BilinearMap":
        """The tensor with these constants, each made canonical by
        `Field.canonical` (errors name the entry's path)."""
        require(field, Field, "field")
        m = BilinearMap(field, read_array(c, 3, path, field.canonical))
        check_map(m, BilinearMap, field, m.dim, path)
        return m

    @staticmethod
    def zero(field: Field, dim: int) -> "BilinearMap":
        require(field, Field, "field")
        _require_dim(dim)
        z = field.zero
        return BilinearMap(field, tuple(tuple(tuple(z for _ in range(dim))
                                              for _ in range(dim))
                                        for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.c)


_second = itemgetter(1)


def sparse_tensor(c) -> tuple:
    """The sparse form of structure constants c, which bilinear_raw reads:
    per i, the pairs (j, ((k, c[i][j][k]), ...)) for every j whose row
    c[i][j] is not the zero vector, with that row's nonzero entries.

    >>> sparse_tensor((((1, 0), (0, 1)), ((0, 1), (0, 0))))
    (((0, ((0, 1),)), (1, ((1, 1),))), ((0, ((1, 1),)),))
    """
    out = []
    for plane in c:
        rows = []
        for j, row in enumerate(plane):
            if any(row):
                rows.append((j, tuple(filter(_second, enumerate(row)))))
        out.append(tuple(rows))
    return tuple(out)


def bilinear_raw(s, x, y) -> list:
    """Unreduced (x, y) under the structure constants whose sparse form is s.

    Skips zero coefficients of x and y and the zero entries of the tensor,
    so basis-vector arguments cost O(dim) at most.
    """
    out = [0] * len(s)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, row in s[i]:
            yj = y[j]
            if yj:
                w = xi * yj
                for k, c in row:
                    out[k] += w * c
    return out


def bilinear_apply(m: BilinearMap, x: Sequence, y: Sequence) -> Vector:
    """m(x, y) for coefficient vectors x and y, as for apply_map."""
    check_own(m, BilinearMap, "m")
    dim, x, y = m.dim, _vector(x, m.field, "x"), _vector(y, m.field, "y")
    if len(x) != dim or len(y) != dim:
        raise DimensionMismatch(f"vectors of length {len(x)},{len(y)} under a dim-{dim} map")
    return tuple(map(m.field.reduce, bilinear_raw(sparse_tensor(m.c), x, y)))


def tensor_combine(field: Field, terms) -> BilinearMap:
    """Pointwise sum of (coefficient, BilinearMap) pairs over one field;
    each coefficient is made canonical in field (errors name its term)."""
    require(field, Field, "field")
    terms = list(terms)
    if not terms:
        raise ShapeError("empty combination", "tensor")
    for i, term in enumerate(terms):
        if not isinstance(term, _ARRAY) or len(term) != 2:
            raise ParamError(f"terms[{i}]: expected a (coefficient, BilinearMap) pair")
        a, m = term
        check_own(m, BilinearMap, f"terms[{i}]")
        terms[i] = field.canonical(a, f"terms[{i}]"), m
        if m.field != field:
            raise FieldMismatch("combining tensors over different fields")
        if m.dim != terms[0][1].dim:
            raise DimensionMismatch("combining tensors of different dimensions")
    red, n = field.reduce, range(terms[0][1].dim)
    return BilinearMap(field, tuple(tuple(tuple(red(sum(a * m.c[i][j][k] for a, m in terms))
                                                for k in n) for j in n) for i in n))
