"""Exhaustive search and seeded sampling of small structures over F_p.

One driver serves both: _resolve refuses a bad SearchSpec, the same way for
either, and resolves its target to one decider ok and one emitter emit.

* rb-family: a candidate is an operator P_a per label on a base product.
  ok is axioms.candidate_check on the zero-operator probe, which decides
  the laws without label variables (hom-assoc, hom-jacobi) once, since
  they do not involve the operators, and ok the rest, at the label pairs
  it is given.
* endomorphism and commuting: a candidate is the matrix of f, and ok,
  axioms.candidate_check for the endomorphism or the commutes law, decides
  f's columns at every basis tuple, or at the ones it is given.

Docs are built for hits only, each from one validated doc (the probe, or
the base) with the candidate put in its slot by structures.with_part, which
checks nothing: every candidate is canonical by construction (see
_resolve), so the map rule holds for the whole candidate space at once.

search_hits walks the whole candidate space in lexicographic order (entry 0
of the first matrix is the most significant digit), by structure rather
than candidate by candidate.  One walk by row prefix (_walk) enumerates
both searched matrices, f for endomorphism and each label's P_a for
rb-family: the basis pairs that read the same columns of the matrix form
a group (_groups), and for each choice of the first dim - 1 rows, in
order, each group's mask of passing last rows is ANDed with the others',
and the set bits, in ascending order, are the candidates left for the
pairs that read every column.  On the diagonal pair (a, a) the matching
Rota-Baxter identity is the Rota-Baxter identity of weight w_a for P_a
alone, so the solutions of each distinct weight are walked once, and the
labels of that weight share them.  The families are joined from those
lists in product order (_families), by backtracking over the label pairs
(a, b) with a != b: the instance at (a, b) reads P_a, P_b and w_b alone,
so each such triple is decided at most once per search, and a pair that
fails drops every family extending it.  f P_a = P_a f is linear in f, so
the commuting hits are the solutions of the system read from that law,
listed in order and each re-checked with ok.  `limit` and `truncated` read
as for a plain loop over the whole space, and SearchSpec.budget bounds that
space's size p^entries up front, so a hopeless request fails fast.
sample_hits draws candidates at random with replacement and decides each
with the same ok; check_sample_size bounds a draw in place of the budget.

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
from fractions import Fraction

from .axioms import (candidate_check, check_side_conditions, linear_system,
                     structure_ok)
from .errors import (BudgetExceededError, Frozen, NonFiniteFieldError,
                     ParamError, PreconditionFailed, TheoremCheckError,
                     UnknownFixtureError, require, require_int)
from .fields import GF, QQ, Field
from .linalg import BilinearMap, LinearMap, _echelon, null_space
from .structures import (KIND_ROLES, MATCHING_HOM_ASSOC, MATCHING_HOM_LIE,
                         PLAIN_ASSOC_MATCHING_RB, PLAIN_RB_KINDS, RB_KINDS,
                         RB_TWINS, AlgebraDoc, OperatorFamily, make_doc,
                         with_part)

TARGET_RB_FAMILY = "rb-family"
TARGET_ENDOMORPHISM = "endomorphism"
TARGET_COMMUTING = "commuting"
TARGETS = (TARGET_RB_FAMILY, TARGET_ENDOMORPHISM, TARGET_COMMUTING)

DEFAULT_BUDGET = 1 << 24


class SearchSpec(Frozen):
    """What to enumerate: a base doc, the label count and weights to search
    operator families over (rb-family target only), and a hit limit.
    base is an AlgebraDoc, weights a tuple or list, and omega_size, limit
    and budget are ints (the first two may be None); anything else is
    refused with ParamError."""

    __slots__ = ("base", "target", "omega_size", "weights", "limit", "budget")

    def __init__(self, base: AlgebraDoc, target: str, omega_size: int | None = None,
                 weights: tuple = (), limit: int | None = None,
                 budget: int = DEFAULT_BUDGET):
        put = object.__setattr__
        put(self, "base", base)
        put(self, "target", target)
        put(self, "omega_size", omega_size)
        put(self, "weights", weights)
        put(self, "limit", limit)
        put(self, "budget", budget)
        require(self.base, AlgebraDoc, "base")
        if not isinstance(self.weights, (tuple, list)):
            raise ParamError(f"weights must be a sequence, not a {type(self.weights).__name__}")
        for name in ("omega_size", "limit", "budget"):
            value = getattr(self, name)
            if value is not None or name == "budget":
                require_int(value, name)


class SearchResult(Frozen):
    __slots__ = ("docs", "truncated")

    def __init__(self, docs: tuple, truncated: bool):
        object.__setattr__(self, "docs", docs)
        object.__setattr__(self, "truncated", truncated)

    def __iter__(self):
        return iter(self.docs)

    def __len__(self) -> int:
        return len(self.docs)


class Hits:
    """The hits of one search, each made as it is iterated.  It is iterated
    once: a second iteration is a ParamError, raised by iter(), which leaves
    truncated as it was.  When the iteration has ended, truncated reads as
    SearchResult's."""

    def __init__(self, stream):
        self._stream = stream   # a generator that returns truncated
        self.truncated = None

    def __iter__(self):
        stream, self._stream = self._stream, None
        if stream is None:
            raise ParamError("a search's hits can be iterated only once")
        return self._drain(stream)

    def _drain(self, stream):
        self.truncated = yield from stream


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
    twist = base.structure_twist()
    if twist.is_identity():
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
    return (weights, ok, emit) for its target, ok being axioms.candidate_check's
    ok(candidate, points=None, tuples=None).  An rb-family candidate maps
    each label of weights (label -> weight, in label order) to its
    operator's matrix, ok takes the operators' columns and is None when the
    probe fails the laws no operators mend, and emit makes one LinearMap per
    distinct matrix; a map target's candidate is the matrix of f, weights is
    None, and ok takes f's columns.  The budget (for enumerate_docs) or
    check_sample_size (for seeded_sample) refuses before the probe is made."""
    require(spec, SearchSpec, "spec")
    if spec.target not in TARGETS:
        raise ParamError(f"unknown search target {spec.target!r}")
    if spec.limit is not None and spec.limit < 1:
        raise ParamError(f"limit must be at least 1, got {spec.limit!r}")
    base = spec.base
    field, dim = base.field, base.dim
    if not field.is_prime_field:
        raise NonFiniteFieldError(f"{what} requires a prime field")
    enumerating = what == "enumerate_docs"
    # Every candidate entry is a digit of range(p): the rows of _walk,
    # _commuting_maps' residues mod p and random_scalar's draws, each in a
    # dim x dim tuple of row tuples, and an rb-family hit's weights are the
    # probe's, which make_doc checked.  So every hit obeys the map rule by
    # construction, and the emitters build it with with_part, unchecked.

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

        made = {}   # one LinearMap per distinct matrix, for this search only

        def emit(ops):
            made.update((m, LinearMap(field, m)) for m in ops.values() if m not in made)
            return with_part(probe, operators=OperatorFamily(
                {lab: made[m] for lab, m in ops.items()}, weights))
        return weights, candidate_check(probe), emit

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
    tag = "endomorphism" if spec.target == TARGET_ENDOMORPHISM else "commutes"
    return None, candidate_check(base, tag), lambda m: with_part(
        base, twist=LinearMap(field, m))


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
    weights, ok, emit = _resolve(spec, "enumerate_docs")
    base = spec.base
    p, dim = base.field.p, base.dim
    last = ((p - 1,) * dim,) * dim   # the last matrix: every digit p - 1
    if weights is not None:
        found = () if ok is None else _families(p, dim, _groups(base, rb=True),
                                                 weights, ok)
        last = dict.fromkeys(weights, last)
    elif spec.target == TARGET_ENDOMORPHISM:
        found = _walk(p, dim, _groups(base, rb=False), ok)
    else:
        def sound(m):
            if not ok(tuple(zip(*m))):
                report = check_side_conditions(base, ["commutes"],
                                               candidate=LinearMap(base.field, m))
                raise TheoremCheckError(
                    "commuting search: a solution fails the commutes check", report)
            return m
        found = map(sound, _commuting_maps(base))
    return Hits(_first(found, spec.limit, last, emit))


def _families(p: int, dim: int, groups: dict, weights: dict, ok):
    """Every operator family that ok accepts, as a dict from each label of
    weights (label -> weight, in label order) to a row tuple, in product
    order, as the module docstring says: each distinct weight's solutions
    are walked once, and the families are joined from them by backtracking
    over the ordered label pairs, each (P_a, P_b, w_b) decided at most once
    into a table that lives no longer than this search."""
    labels, ids, solutions = tuple(weights), {}, {}
    for lab, w in weights.items():
        if w not in solutions:
            walk = _walk(p, dim, groups, lambda f, pts, lab=lab, diagonal=(
                (lab, lab),): ok({lab: f}, pts, diagonal))
            # (id, rows, columns) per solution; equal matrices share an id
            solutions[w] = [(ids.setdefault(m, len(ids)), m, tuple(zip(*m)))
                            for m in walk]
    lists, ws = [solutions[w] for w in weights.values()], tuple(weights.values())
    verdicts, chosen = {}, []

    def holds(x, y):
        key = chosen[x][0], chosen[y][0], ws[y]
        verdict = verdicts.get(key)
        if verdict is None:
            a, b = labels[x], labels[y]
            verdict = verdicts[key] = ok({a: chosen[x][2], b: chosen[y][2]},
                                         tuples=((a, b),))
        return verdict

    def extend(k):
        for s in lists[k]:
            chosen.append(s)
            if all(holds(x, k) and holds(k, x) for x in range(k)):
                if k == len(labels) - 1:
                    yield {lab: m for lab, (_, m, _) in zip(labels, chosen)}
                else:
                    yield from extend(k + 1)
            chosen.pop()
    return extend(0)


def _groups(base: AlgebraDoc, rb: bool) -> dict:
    """The basis pairs (i, j), keyed by the sorted columns of the searched
    matrix that its law reads at (i, j).  With supp(i, j) the support of
    c[i][j] over every role and label of base, the endomorphism law reads
    S_ij = {i, j} + supp(i, j), and the Rota-Baxter identity of one label
    (rb) reads R_ij = {i, j} + U1(i) + U2(j), where U1(i) is the union of
    supp(i, s) over s and U2(j) that of supp(s, j).  Its weight term reads
    supp(i, j), inside U1(i), so R_ij serves every weight and label."""
    dim = base.dim
    tensors = [fam.maps[lab].c for fam in base.families.values()
               for lab in base.labels]

    def supp(i, j):
        return {k for c in tensors for k, v in enumerate(c[i][j]) if v}
    if rb:
        u1 = [set().union(*(supp(i, s) for s in range(dim))) for i in range(dim)]
        u2 = [set().union(*(supp(s, j) for s in range(dim))) for j in range(dim)]
    groups = {}
    for i, j in itertools.product(range(dim), repeat=2):
        reads = {i, j} | (u1[i] | u2[j] if rb else supp(i, j))
        groups.setdefault(tuple(sorted(reads)), []).append((i, j))
    return groups


def _walk(p: int, dim: int, groups: dict, check):
    """Every dim x dim matrix over F_p, as a row tuple, in lexicographic
    order, whose columns check(columns, pairs) accepts at the pairs of each
    of groups (_groups), walked by row prefix; groups is left as it is.  A
    group that reads fewer than every column is decided with every other
    column zero, and the one that reads every column on each candidate the
    others leave.  A prefix is the first dim - 1 rows, taken in product
    order; bit r of a mask stands for the last row rows[r].
    Column k of the matrix is the prefix's column k with entry k of the
    last row below it, so a group's verdict depends on the prefix only
    through its head, the prefix's columns S.  Per head, each group keeps
    the mask of the last rows that pass it, deciding one restriction s of
    the last row to S at a time, and only for an s that a row still alive
    after the groups before it restricts to: so check decides each (group,
    columns) pair once, where a candidate-by-candidate loop that stops at a
    candidate's first failed group does.  The AND of a prefix's masks holds
    its passing last rows, yielded in ascending order."""
    rows = tuple(itertools.product(range(p), repeat=dim))
    zero = (0,) * dim
    full, parts = groups.get(tuple(range(dim))), []
    for cols, pairs in groups.items():
        if len(cols) == dim:    # every column: decided on the full candidates
            continue
        share = {}    # a restriction s to cols -> the rows restricting to it
        for r, row in enumerate(rows):
            s = tuple(row[k] for k in cols)
            share[s] = share.get(s, 0) | 1 << r
        # head -> [mask of the passing rows, the (s, mask) still undecided]
        parts.append((cols, pairs, tuple(share.items()), {}))
    every = (1 << len(rows)) - 1
    lasts = [(row,) for row in rows]
    for prefix in itertools.product(rows, repeat=dim - 1):
        columns = tuple(zip(*prefix))
        alive = every
        for cols, pairs, share, masks in parts:
            head = tuple(columns[k] for k in cols)
            known = masks.get(head)
            if known is None:
                known = masks[head] = [0, share]
            passing, pending = known
            if pending:
                undecided = []
                for s, bits in pending:
                    if not bits & alive:
                        undecided.append((s, bits))
                        continue
                    f = [zero] * dim
                    for k, h, v in zip(cols, head, s):
                        f[k] = h + (v,)
                    if check(tuple(f), pairs):
                        passing |= bits
                known[:] = passing, undecided
            alive &= passing
            if not alive:
                break
        for r, bit in enumerate(bin(alive)[:1:-1]):
            if bit == "1":
                m = prefix + lasts[r]
                if full is None or check(tuple(zip(*m)), full):
                    yield m


def enumerate_docs(spec: SearchSpec) -> SearchResult:
    """Every hit of search_hits(spec), collected."""
    return _result(search_hits(spec))


def _commuting_maps(base: AlgebraDoc):
    """Every f with f P_a = P_a f for each label a, in lexicographic order.

    The condition is a linear system in the entries of f, taken row-major,
    which is the digit order; axioms.linear_system reads it from the
    compiled commutes law.  Its solutions are the combinations of a
    kernel basis brought to reduced echelon form, and two of them first
    differ at a pivot digit, where each carries its own coefficient; so
    coefficient tuples in product order give the solutions in lexicographic
    order.
    """
    field, dim = base.field, base.dim
    n = dim * dim
    basis = null_space(field, linear_system(base, "commutes"), n)
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
    check_sample_size bounds rb-family label counts in place of the budget,
    and then a set limit is refused: count bounds a sample.  seed and count
    are ints; anything else is refused with ParamError."""
    require_int(seed, "seed")
    require_int(count, "count")
    if count < 0:
        raise ParamError(f"count must be non-negative, got {count!r}")
    weights, ok, emit = _resolve(spec, "seeded_sample")
    if spec.limit is not None:
        raise ParamError("a sample takes no limit: count bounds its hits")
    field, dim = spec.base.field, spec.base.dim
    rng = random.Random(seed)

    def matrix():
        return tuple(tuple(field.random_scalar(rng) for _ in range(dim))
                     for _ in range(dim))

    if weights is None:
        draw, decide = matrix, lambda m: ok(tuple(zip(*m)))
    else:
        draw, decide = (lambda: {lab: matrix() for lab in weights},
                        lambda c: ok({lab: tuple(zip(*m)) for lab, m in c.items()}))
    cap = max(_MIN_ATTEMPTS, 1000 * count) if ok is not None else 0
    return Hits(_drawn(draw, decide, emit, count, cap))


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
    if not isinstance(name, str) or name not in table:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; names: {', '.join(sorted(table))}")
    return table[name]
