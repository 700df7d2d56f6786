"""Exhaustive search and seeded sampling of small structures over F_p.

One driver serves both: _resolve refuses a bad SearchSpec, the same way for
either, and resolves its target to one decider ok and one emitter emit.

* rb-family: a candidate is an operator P_a per label on a base product.
  The laws without label variables (hom-assoc, hom-jacobi) do not involve
  the operators, so the zero-operator probe decides them once, and ok,
  axioms.candidate_check on the probe, decides the rest.
* endomorphism: a candidate is the matrix of f, and ok decides
  f(x_i x_j) = f(x_i) f(x_j) from verdict tables per basis pair, as
  axioms.candidate_check describes.
* commuting: a candidate is the matrix of f, and ok is the commutes side
  condition.

Docs are built for hits only, each from one validated doc (the probe, or
the base) with the candidate swapped in and only that part checked
(structures.swap_part).

search_hits walks the whole candidate space in lexicographic order (entry 0
of the first matrix is the most significant digit), by structure rather
than candidate by candidate.  On the diagonal pair (a, a) the matching
Rota-Baxter identity is the Rota-Baxter identity of weight w_a for P_a
alone, so each label's solutions are found alone, and the tuples of them,
in product order, are cross-checked on the label pairs (a, b) with a != b.
f P_a = P_a f is linear in f, so the commuting hits are the solutions of
that system, listed in order and each re-checked with ok.  `limit` and
`truncated` read as for a plain loop over the whole space, and
SearchSpec.budget bounds that space's size p^entries up front, so a
hopeless request fails fast.  sample_hits draws candidates at random with
replacement and decides each with the same ok; check_sample_size bounds a
draw in place of the budget.

Both are a stream of hits.  search_hits and sample_hits return a Hits that
makes each hit as it is iterated, so a reader can write the first hit while
the search goes on and stop it early; every refusal is raised by the call
itself, before the first hit.  enumerate_docs and seeded_sample collect that
stream into a SearchResult.
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
from .structures import (KIND_ROLES, MATCHING_HOM_ASSOC, MATCHING_HOM_LIE,
                         PLAIN_ASSOC_MATCHING_RB, PLAIN_RB_KINDS, RB_KINDS,
                         RB_TWINS, AlgebraDoc, OperatorFamily, make_doc,
                         swap_part)

TARGET_RB_FAMILY = "rb-family"
TARGET_ENDOMORPHISM = "endomorphism"
TARGET_COMMUTING = "commuting"
TARGETS = (TARGET_RB_FAMILY, TARGET_ENDOMORPHISM, TARGET_COMMUTING)

DEFAULT_BUDGET = 1 << 24


def _require_int(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParamError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: a base doc, the label count and weights to search
    operator families over (rb-family target only), and a hit limit.
    omega_size, limit and budget are ints (the first two may be None);
    anything else is refused with ParamError."""

    base: AlgebraDoc
    target: str
    omega_size: int | None = None
    weights: tuple = ()
    limit: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        for name in ("omega_size", "limit", "budget"):
            value = getattr(self, name)
            if value is not None or name == "budget":
                _require_int(value, name)


@dataclass(frozen=True)
class SearchResult:
    docs: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.docs)

    def __len__(self) -> int:
        return len(self.docs)


class Hits:
    """The hits of one search, each made as it is iterated; iterate it once.
    When the iteration has ended, truncated reads as SearchResult's."""

    def __init__(self, stream):
        self._stream = stream   # a generator that returns truncated
        self.truncated = None

    def __iter__(self):
        self.truncated = yield from self._stream


def _result(hits: Hits) -> SearchResult:
    docs = tuple(hits)
    return SearchResult(docs, hits.truncated)


def _search_labels(base: AlgebraDoc, omega_size: int):
    if len(base.labels) == omega_size:
        return base.labels
    names = "abcdefghijklmnopqrstuvwxyz"
    return tuple(names[i] if i < len(names) else f"w{i}" for i in range(omega_size))


def _spec_weights(spec: SearchSpec) -> tuple:
    """spec.weights as canonical scalars of the base's field, as a parsed
    doc has them: over F_p, a/b is a * b^-1."""
    field = spec.base.field
    out = []
    for i, w in enumerate(spec.weights):
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise ParamError(f"weights[{i}] must be an integer or a Fraction, "
                             f"got {w!r}")
        out.append(field.canonical(w, f"weights[{i}]"))
    return tuple(out)


def _rb_family_plan(spec: SearchSpec):
    """The product, labels, weights, output kind, role and twist of an
    rb-family search; the zero-operator probe is made from them."""
    base = spec.base
    if base.kind not in RB_TWINS:
        raise PreconditionFailed(
            f"rb-family search does not accept kind {base.kind!r}")
    if base.kind not in RB_KINDS and len(base.labels) != 1:
        raise PreconditionFailed(
            "rb-family search needs a single product on the base")
    twist = None if base.kind in PLAIN_RB_KINDS else base.twist_map()
    if twist is not None and twist.is_identity():
        twist = None
    kind = RB_TWINS[base.kind][twist is not None]
    role = KIND_ROLES[kind][0]
    product = base.families[role].maps[base.labels[0]]
    if spec.omega_size is None or spec.omega_size < 1:
        raise ParamError("rb-family search needs omega_size >= 1")
    if len(spec.weights) != spec.omega_size:
        raise ParamError(
            f"expected {spec.omega_size} weights, got {len(spec.weights)}")
    labels = _search_labels(base, spec.omega_size)
    return product, labels, dict(zip(labels, _spec_weights(spec))), kind, role, twist


def _matrices(p: int, dim: int):
    """Every dim x dim matrix over F_p as a row tuple, in lexicographic
    order of its row-major digits."""
    return itertools.product(itertools.product(range(p), repeat=dim), repeat=dim)


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


def _resolve(spec: SearchSpec, what: str):
    """Refuse spec as `what` (enumerate_docs or seeded_sample) does, then
    return (labels, ok, emit) for its target.  An rb-family candidate maps
    each of labels, in order, to its operator's matrix, and ok is None when
    the probe fails the laws that no operators mend; a map target's
    candidate is the matrix of f, and labels is None.  The budget (for
    enumerate_docs) or check_sample_size (for seeded_sample) refuses before
    the probe is made."""
    if spec.target not in TARGETS:
        raise ParamError(f"unknown search target {spec.target!r}")
    if spec.limit is not None and spec.limit < 1:
        raise ParamError(f"limit must be at least 1, got {spec.limit!r}")
    base = spec.base
    field, dim = base.field, base.dim
    if not field.is_prime_field:
        raise NonFiniteFieldError(f"{what} requires a prime field")
    enumerating = what == "enumerate_docs"

    if spec.target == TARGET_RB_FAMILY:
        if not enumerating:
            check_sample_size(dim, spec.omega_size)
        product, labels, weights, kind, role, twist = _rb_family_plan(spec)
        if enumerating:
            _check_budget(spec, dim * dim * len(labels))
        zero = LinearMap.from_rows(field, [[0] * dim for _ in range(dim)])
        probe = make_doc(field, dim, labels, kind, {role: product},
                         operators=OperatorFamily(dict.fromkeys(labels, zero), weights),
                         twist=twist)

        def emit(ops):
            # digits are canonical residues, so the rows need no reducing
            return swap_part(probe, operators=OperatorFamily(
                {lab: LinearMap(field, m) for lab, m in ops.items()}, weights))
        return labels, candidate_check(probe) if structure_ok(probe) else None, emit

    # endomorphism / commuting: candidate twists for a plain matching RB doc
    if base.kind not in PLAIN_RB_KINDS:
        raise PreconditionFailed(
            f"{spec.target} search needs a plain matching RB base")
    if not structure_ok(base):
        raise PreconditionFailed(f"{spec.target} search: base fails its check")
    if spec.omega_size is not None and spec.omega_size != len(base.labels):
        raise ParamError("omega_size cannot be changed for this target")
    if spec.weights and _spec_weights(spec) != tuple(
            base.operators.weights[lab] for lab in base.labels):
        raise ParamError("weights cannot be changed for this target")
    if enumerating:
        _check_budget(spec, dim * dim)
    if spec.target == TARGET_ENDOMORPHISM:
        ok = candidate_check(base, "endomorphism")
    else:
        def ok(m):
            cand = LinearMap(field, m)
            return check_side_conditions(base, ["commutes"], candidate=cand).passed
    return None, ok, lambda m: swap_part(base, twist=LinearMap(field, m))


def _first(found, limit, last, emit):
    """Yield emit(c) for the hits c of found, in its order, up to limit,
    and return truncated.  The candidates run in lexicographic order up to
    last, the one of all digits p - 1, so a stream stopped by the limit is
    truncated unless the hit that reached it is last."""
    made = 0
    for c in found:
        yield emit(c)
        made += 1
        if made == limit:
            return c != last
    return False


def search_hits(spec: SearchSpec) -> Hits:
    """The hits of an exhaustive search, in lexicographic candidate order,
    as a stream.  See the module docstring for how each target's candidate
    space is walked."""
    labels, ok, emit = _resolve(spec, "enumerate_docs")
    base = spec.base
    p, dim = base.field.p, base.dim
    last = ((p - 1,) * dim,) * dim   # the last matrix: every digit p - 1
    if labels is not None:
        found = ()
        if ok is not None:
            # the diagonal instance (a, a) involves P_a alone
            alone = [[m for m in _matrices(p, dim) if ok({lab: m})] for lab in labels]
            found = (dict(zip(labels, ms)) for ms in itertools.product(*alone))
            if len(labels) > 1:
                found = (c for c in found if ok(c, mixed=True))
        last = dict.fromkeys(labels, last)
    elif spec.target == TARGET_ENDOMORPHISM:
        found = (m for m in _matrices(p, dim) if ok(m))
    else:
        def sound(m):
            if not ok(m):
                report = check_side_conditions(base, ["commutes"],
                                               candidate=LinearMap(base.field, m))
                raise TheoremCheckError(
                    "commuting search: a solution fails the commutes check", report)
            return m
        found = map(sound, _commuting_maps(base))
    return Hits(_first(found, spec.limit, last, emit))


def enumerate_docs(spec: SearchSpec) -> SearchResult:
    """Every hit of search_hits(spec), collected."""
    return _result(search_hits(spec))


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


def _drawn(draw, ok, emit, count, attempts):
    """Yield emit(c) for each candidate c = draw() that ok accepts, until
    count hits or the attempts run out, and return whether the hits fell
    short of count."""
    made = 0
    for _ in range(attempts):
        if made >= count:
            break
        c = draw()
        if ok(c):
            yield emit(c)
            made += 1
    return made < count


def sample_hits(spec: SearchSpec, seed: int, count: int) -> Hits:
    """Candidates drawn with replacement until `count` hits or the attempt
    cap, as a stream; deterministic for a given seed.  truncated means a
    shortfall.  A spec is refused as by search_hits, except that
    check_sample_size bounds rb-family label counts in place of the budget."""
    _require_int(count, "count")
    if count < 0:
        raise ParamError(f"count must be non-negative, got {count!r}")
    labels, ok, emit = _resolve(spec, "seeded_sample")
    field, dim = spec.base.field, spec.base.dim
    rng = random.Random(seed)

    def matrix():
        return tuple(tuple(field.random_scalar(rng) for _ in range(dim))
                     for _ in range(dim))

    draw = matrix if labels is None else lambda: {lab: matrix() for lab in labels}
    cap = max(_MIN_ATTEMPTS, 1000 * count) if ok is not None else 0
    return Hits(_drawn(draw, ok, emit, count, cap))


def seeded_sample(spec: SearchSpec, seed: int, count: int) -> SearchResult:
    """Every hit of sample_hits(spec, seed, count), collected."""
    return _result(sample_hits(spec, seed, count))


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
