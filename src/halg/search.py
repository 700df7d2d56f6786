"""Exhaustive search and seeded sampling of small structures over F_p.

enumerate_docs returns every hit of a candidate space in lexicographic order
(entry 0 of the first matrix is the most significant digit), but it finds
them by structure rather than by testing each candidate:

* rb-family: operator families (P_a) on a base product.  The laws without
  label variables (hom-assoc, hom-jacobi) do not involve the operators, so
  the zero-operator probe decides them once.  On the diagonal pair (a, a)
  the matching Rota-Baxter identity is the Rota-Baxter identity of weight
  w_a for P_a alone, so each label's solutions S_a are found on their own,
  and the tuples of S_1 x ... x S_k, walked in product order, are
  cross-checked on the label pairs (a, b) with a != b.
* endomorphism: every candidate map in lexicographic order, decided from
  verdict tables per basis pair.  f(x_i x_j) = f(x_i) f(x_j) reads only the
  columns i, j and supp(x_i x_j) of f, so a pair that reads fewer than all
  columns is evaluated once per assignment of those columns and looked up
  after that (see axioms.candidate_check); the pairs that read every column
  are evaluated per candidate.
* commuting: f P_a = P_a f is linear in the entries of f, so the hits are
  the elements of a solution space, listed in order and each re-checked.

Docs are built for hits only, each from one validated doc (the base, or the
rb-family probe) with its twist or operators swapped in and only that part
checked (structures.swap_part).  `limit` and `truncated` read as for a plain
loop over the whole candidate space, and SearchSpec.budget bounds that
space's size p^entries up front, so a hopeless request fails fast.
seeded_sample draws candidates at random and checks each one.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .axioms import candidate_check, check_side_conditions, structure_ok
from .errors import (BudgetExceededError, NonFiniteFieldError, ParamError,
                     PreconditionFailed, TheoremCheckError,
                     UnknownFixtureError)
from .fields import GF, QQ, Field
from .linalg import BilinearMap, LinearMap, _echelon, null_space
from .structures import (ASSOC_RB_KINDS, HOM_ASSOC_MATCHING_RB,
                         MATCHING_HOM_ASSOC, MATCHING_HOM_LIE,
                         MATCHING_HOM_LIE_RB, PLAIN_ASSOC_MATCHING_RB,
                         PLAIN_LIE_MATCHING_RB, PLAIN_RB_KINDS, RB_KINDS,
                         AlgebraDoc, OperatorFamily, make_doc, swap_part)

TARGET_RB_FAMILY = "rb-family"
TARGET_ENDOMORPHISM = "endomorphism"
TARGET_COMMUTING = "commuting"
TARGETS = (TARGET_RB_FAMILY, TARGET_ENDOMORPHISM, TARGET_COMMUTING)

DEFAULT_BUDGET = 1 << 24


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: a base doc, the label count and weights to search
    operator families over (rb-family target only), and a hit limit."""

    base: AlgebraDoc
    target: str
    omega_size: int | None = None
    weights: tuple = ()
    limit: int | None = None
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class SearchResult:
    docs: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.docs)

    def __len__(self) -> int:
        return len(self.docs)


def _require_finite(field: Field, what: str) -> None:
    if not field.is_prime_field:
        raise NonFiniteFieldError(f"{what} requires a prime field")


def _search_labels(base: AlgebraDoc, omega_size: int):
    if len(base.labels) == omega_size:
        return base.labels
    names = "abcdefghijklmnopqrstuvwxyz"
    return tuple(names[i] if i < len(names) else f"w{i}" for i in range(omega_size))


def _rb_family_plan(spec: SearchSpec):
    """Resolve label set, weights, output kind/twist and the zero-op probe."""
    base = spec.base
    field = base.field
    if base.kind in RB_KINDS:
        product = base.product()
        lie = base.kind not in ASSOC_RB_KINDS
        twist = base.twist_map() if base.kind not in PLAIN_RB_KINDS else None
    elif base.kind in (MATCHING_HOM_ASSOC, MATCHING_HOM_LIE):
        if len(base.labels) != 1:
            raise PreconditionFailed(
                "rb-family search needs a single product on the base")
        role = "dot" if base.kind == MATCHING_HOM_ASSOC else "bracket"
        product = base.families[role].maps[base.labels[0]]
        lie = base.kind == MATCHING_HOM_LIE
        twist = base.twist_map()
    else:
        raise PreconditionFailed(
            f"rb-family search does not accept kind {base.kind!r}")
    if twist is not None and twist.is_identity():
        twist = None
    if spec.omega_size is None or spec.omega_size < 1:
        raise ParamError("rb-family search needs omega_size >= 1")
    if len(spec.weights) != spec.omega_size:
        raise ParamError(
            f"expected {spec.omega_size} weights, got {len(spec.weights)}")
    labels = _search_labels(base, spec.omega_size)
    weights = {}
    for i, (lab, w) in enumerate(zip(labels, spec.weights)):
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise ParamError(f"weights[{i}] must be an integer or a Fraction, "
                             f"got {w!r}")
        # canonical as a parsed doc has it: over F_p, a/b is a * b^-1
        weights[lab] = field.canonical(w, f"weights[{i}]")
    if lie:
        kind = MATCHING_HOM_LIE_RB if twist is not None else PLAIN_LIE_MATCHING_RB
        role = "bracket"
    else:
        kind = HOM_ASSOC_MATCHING_RB if twist is not None else PLAIN_ASSOC_MATCHING_RB
        role = "dot"
    return product, labels, weights, kind, role, twist


def _rb_doc(field, dim, labels, kind, role, product, ops, weights, twist):
    return make_doc(field, dim, labels, kind, {role: product},
                    operators=OperatorFamily(ops=ops, weights=weights),
                    twist=twist)


def _matrices_from_digits(field, dim, labels, digits):
    per = dim * dim
    ops = {}
    for idx, lab in enumerate(labels):
        chunk = digits[idx * per:(idx + 1) * per]
        rows = [list(chunk[r * dim:(r + 1) * dim]) for r in range(dim)]
        ops[lab] = LinearMap.from_rows(field, rows)
    return ops


def _matrices(p: int, dim: int):
    """Every dim x dim matrix over F_p as a row tuple, in lexicographic
    order of its row-major digits."""
    for digits in itertools.product(range(p), repeat=dim * dim):
        yield tuple(digits[r * dim:(r + 1) * dim] for r in range(dim))


def _check_budget(spec: SearchSpec, entries: int) -> None:
    p, budget = spec.base.field.p, spec.budget
    # p^entries has about entries * log2(p) bits: a space that far past the
    # budget is refused before the power is computed
    if budget < 1 or entries * math.log2(p) > math.log2(budget) + 1:
        raise BudgetExceededError(
            f"{p}^{entries} candidates exceed the budget {budget}")
    total = p ** entries
    if total > budget:
        raise BudgetExceededError(f"{total} candidates exceed the budget {budget}")


def _collect(found, limit, p, emit) -> SearchResult:
    """Emit the hits of found, in its order, up to limit.  A hit is a tuple
    of matrices, and the candidates are every such tuple in lexicographic
    order, so a result stopped by the limit is truncated unless the hit
    that reached it is the last candidate, the one of all digits p - 1."""
    hits = []
    for ms in found:
        hits.append(emit(ms))
        if len(hits) == limit:
            last = all(v == p - 1 for m in ms for row in m for v in row)
            return SearchResult(tuple(hits), not last)
    return SearchResult(tuple(hits), False)


def enumerate_docs(spec: SearchSpec) -> SearchResult:
    """Every hit of an exhaustive search, in lexicographic candidate order.
    See the module docstring for what each target enumerates."""
    if spec.target not in TARGETS:
        raise ParamError(f"unknown search target {spec.target!r}")
    if spec.limit is not None and spec.limit < 1:
        raise ParamError(f"limit must be at least 1, got {spec.limit!r}")
    base = spec.base
    field = base.field
    _require_finite(field, "enumerate_docs")
    dim = base.dim
    p = field.p

    if spec.target == TARGET_RB_FAMILY:
        product, labels, weights, kind, role, twist = _rb_family_plan(spec)
        _check_budget(spec, dim * dim * len(labels))
        zero_ops = {lab: LinearMap.from_rows(field, [[0] * dim for _ in range(dim)])
                    for lab in labels}
        probe = _rb_doc(field, dim, labels, kind, role, product, zero_ops,
                        weights, twist)
        if not structure_ok(probe):
            return SearchResult((), False)
        ok = candidate_check(probe)
        # the diagonal instance (a, a) involves P_a alone
        alone = [[m for m in _matrices(p, dim) if ok({lab: m})] for lab in labels]
        found = itertools.product(*alone)
        if len(labels) > 1:
            found = (ms for ms in found if ok(dict(zip(labels, ms)), mixed=True))

        def emit(ms):
            # digits are canonical residues, so the rows need no reducing
            ops = {lab: LinearMap(field, m) for lab, m in zip(labels, ms)}
            return swap_part(probe, operators=OperatorFamily(ops, weights))
        return _collect(found, spec.limit, p, emit)

    # endomorphism / commuting: candidate twists for a plain matching RB doc
    if base.kind not in PLAIN_RB_KINDS:
        raise PreconditionFailed(
            f"{spec.target} search needs a plain matching RB base")
    if not structure_ok(base):
        raise PreconditionFailed(f"{spec.target} search: base fails its check")
    if spec.omega_size is not None and spec.omega_size != len(base.labels):
        raise ParamError("omega_size cannot be changed for this target")
    if spec.weights and tuple(spec.weights) != tuple(
            base.operators.weights[lab] for lab in base.labels):
        raise ParamError("weights cannot be changed for this target")
    _check_budget(spec, dim * dim)
    if spec.target == TARGET_ENDOMORPHISM:
        ok = candidate_check(base, "endomorphism")
        found = ((m,) for m in _matrices(p, dim) if ok(m))

        def emit(ms):
            return swap_part(base, twist=LinearMap(field, ms[0]))
    else:
        found = ((m,) for m in _commuting_maps(base))

        def emit(ms):
            cand = LinearMap(field, ms[0])
            report = check_side_conditions(base, ["commutes"], candidate=cand)
            if not report.passed:
                raise TheoremCheckError(
                    "commuting search: a solution fails the commutes check", report)
            return swap_part(base, twist=cand)
    return _collect(found, spec.limit, p, emit)


def _commuting_maps(base: AlgebraDoc):
    """Every f with f P_a = P_a f for each label a, in lexicographic order.

    The condition is a linear system in the entries of f, taken row-major,
    which is the digit order.  Its solutions are the combinations of a
    kernel basis brought to reduced echelon form, and two of them first
    differ at a pivot digit, where each carries its own coefficient; so
    coefficient tuples in product order give the solutions in lexicographic
    order.
    """
    field, dim = base.field, base.dim
    n = dim * dim
    system = []
    for lab in base.labels:
        P = base.operators.ops[lab].rows
        for i in range(dim):
            for j in range(dim):
                # (f P - P f)[i][j] = sum_k f[i][k] P[k][j] - P[i][k] f[k][j]
                row = [0] * n
                for k in range(dim):
                    row[i * dim + k] += P[k][j]
                    row[k * dim + j] -= P[i][k]
                system.append([field.reduce(v) for v in row])
    basis = null_space(field, system, n)
    _echelon(field, basis)
    p = field.p
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        flat = [sum(c * v[t] for c, v in zip(coeffs, basis)) % p for t in range(n)]
        yield tuple(tuple(flat[r * dim:(r + 1) * dim]) for r in range(dim))


# seeded_sample gives up after max(_MIN_ATTEMPTS, 1000 * count) attempts
_MIN_ATTEMPTS = 100000


def check_sample_size(dim: int, omega_size) -> None:
    """Refuse an rb-family sample of omega_size labels on a dim-dimensional
    base when one attempt would draw more operator digits (dim^2 per label)
    than the smallest attempt cap has attempts.  It runs before any label
    or weight is made, so a huge label count costs nothing."""
    if omega_size is not None and dim * dim * omega_size > _MIN_ATTEMPTS:
        raise ParamError(
            f"{omega_size} labels of {dim}x{dim} operators draw more digits in "
            f"one attempt than a sample's {_MIN_ATTEMPTS} attempts")


def seeded_sample(spec: SearchSpec, seed: int, count: int) -> SearchResult:
    """Sample candidates with replacement until `count` hits or the attempt
    cap; deterministic for a given seed.  truncated means a shortfall.
    rb-family label counts are bounded by check_sample_size."""
    if spec.target not in TARGETS:
        raise ParamError(f"unknown search target {spec.target!r}")
    if count < 0:
        raise ParamError(f"count must be non-negative, got {count!r}")
    base = spec.base
    field = base.field
    _require_finite(field, "seeded_sample")
    dim = base.dim
    rng = random.Random(seed)
    cap = max(_MIN_ATTEMPTS, 1000 * count)

    if spec.target == TARGET_RB_FAMILY:
        check_sample_size(dim, spec.omega_size)
        product, labels, weights, kind, role, twist = _rb_family_plan(spec)
        entries = dim * dim * len(labels)
        zero_ops = {lab: LinearMap.from_rows(field, [[0] * dim for _ in range(dim)])
                    for lab in labels}
        probe = _rb_doc(field, dim, labels, kind, role, product, zero_ops,
                        weights, twist)
        if not structure_ok(probe):
            return SearchResult((), count > 0)
        hits = []
        for _ in range(cap):
            if len(hits) >= count:
                break
            digits = tuple(field.random_scalar(rng) for _ in range(entries))
            ops = _matrices_from_digits(field, dim, labels, digits)
            doc = _rb_doc(field, dim, labels, kind, role, product, ops,
                          weights, twist)
            if structure_ok(doc):
                hits.append(doc)
        return SearchResult(tuple(hits), len(hits) < count)

    if base.kind not in PLAIN_RB_KINDS:
        raise PreconditionFailed(
            f"{spec.target} search needs a plain matching RB base")
    if not structure_ok(base):
        raise PreconditionFailed(f"{spec.target} search: base fails its check")
    tag = "endomorphism" if spec.target == TARGET_ENDOMORPHISM else "commutes"
    hits = []
    for _ in range(cap):
        if len(hits) >= count:
            break
        cand = LinearMap.from_rows(
            field, [[field.random_scalar(rng) for _ in range(dim)]
                    for _ in range(dim)])
        if check_side_conditions(base, [tag], candidate=cand).passed:
            hits.append(swap_part(base, twist=cand))
    return SearchResult(tuple(hits), len(hits) < count)


def _fixtures_over(field: Field) -> dict:
    id2 = LinearMap.identity(field, 2)
    dot_n2 = BilinearMap.from_nested(field, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    fx = {}
    fx["Z2"] = make_doc(field, 2, ("a",), MATCHING_HOM_ASSOC,
                        {"dot": BilinearMap.zero(field, 2)}, twist=id2)
    fx["D1"] = make_doc(field, 1, ("a",), MATCHING_HOM_ASSOC,
                        {"dot": BilinearMap.from_nested(field, [[[1]]])},
                        twist=LinearMap.identity(field, 1))
    fx["N2"] = make_doc(field, 2, ("a",), MATCHING_HOM_ASSOC, {"dot": dot_n2},
                        twist=id2)
    fx["N2-Pnil-w0"] = make_doc(
        field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": dot_n2},
        operators=OperatorFamily(
            ops={"a": LinearMap.from_rows(field, [[0, 0], [1, 0]])},
            weights={"a": 0}))
    fx["N2-id-wm1"] = make_doc(
        field, 2, ("a",), PLAIN_ASSOC_MATCHING_RB, {"dot": dot_n2},
        operators=OperatorFamily(ops={"a": id2},
                                 weights={"a": field.reduce(-1)}))
    fx["aff2"] = make_doc(
        field, 2, ("a",), MATCHING_HOM_LIE,
        {"bracket": BilinearMap.from_nested(
            field, [[[0, 0], [0, 1]], [[0, field.reduce(-1)], [0, 0]]])},
        twist=id2)
    return fx


def _catalog() -> dict:
    """Small named examples: Z2 the zero product, D1 the ground field, N2
    the dual numbers, aff2 the nonabelian 2-dim Lie algebra, plus N2 with a
    nilpotent weight-0 operator and with the identity at weight -1; each over
    the rationals and reduced mod 2 and mod 3."""
    out = {}
    for suffix, field in (("", QQ), ("-F2", GF(2)), ("-F3", GF(3))):
        for name, doc in _fixtures_over(field).items():
            out[name + suffix] = doc
    return out


def fixture_names():
    return tuple(sorted(_catalog()))


def catalog(name: str | None = None):
    """All fixtures as a dict, or one doc by name."""
    table = _catalog()
    if name is None:
        return table
    try:
        return table[name]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; names: {', '.join(sorted(table))}") from None
