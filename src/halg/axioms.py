"""Exact identity checking for every supported structure kind.

Every defining identity is multilinear in each argument slot once the twist
columns are fixed, so checking it on all basis tuples (triples, or pairs for
the matching Rota-Baxter equation) decides it on the whole carrier.  The
checks here do exactly that, in a fixed deterministic order, and report each
failure as a replayable witness.

Identities are data: every law is a row of a table, and one evaluator
decides them all.  A row is ``(axiom-id, label variables, lhs, rhs, ...)``,
optionally tagged with a flag it runs under.

* Sides.  Every side, of a law or of a constructed tensor, is written in
  one notation, Python source read by `_terms`: ``"dot.b(dot.a(X, Y),
  p(Z))"``.  X, Y, Z are the basis slots; a call applies a linear map to one
  argument or a bilinear map to two; ``+`` and ``-`` add and subtract
  terms, and ``0`` is the zero vector.  With several right-hand sides, each
  basis tuple compares the left side with each of them in turn.
* Names.  ``n.v`` is the map n at the label bound to the variable v; a bare
  ``n`` takes no label.  Bilinear maps: each role (``dot.a``, ``left.b``,
  ...); a bare ``m``, the single product of an rb kind; and, in a side
  condition or a law between two docs, ``m.a``, the role under check, R,
  which the runner is given, and ``m2.a``, R's map in the second doc (a
  morphism's target).  Linear maps: ``p`` the structure twist and ``p2`` the second doc's, ``f``
  the map under test and ``g`` a power or the inverse of it, ``P`` the
  operators and ``P2`` the second doc's, and the weights ``w``, which scale.
* Quantifiers.  The label variables range over all ordered tuples of the
  doc's labels (a law without any has one instance), and then the slots
  over all basis tuples.  A witness carries the bound labels and the basis
  tuple.  A side condition or a law between two docs marked per role runs
  once for each role of the kind, in role order.
* Flags.  A law tagged `when` runs only under that flag (``"!flag"``: only
  without it): "verbose", the dendriform toggle, and "alternating" for the
  bracket role.

Each row has one runner, a Python function generated ahead of time from the
row by `halg._codegen` into `halg._runners`, which this module imports, so
no process compiles a law; the runner is shared by every role the row is
checked on.  Per label tuple the runner reads the maps the row names from a
frame, and then it loops over the basis tuples inside the generated code,
running the row's guard and sides inline; a product that a side multiplies
through is bound in its sparse form, made once per frame.  Over Q a frame
binds every tensor, twist, operator column, weight and candidate map as
ints times one common denominator D, the lcm of every denominator it binds
(for a law between two docs, of both docs' and the map's), so the runner
works on ints alone; over F_p, D = 1.  A row's degree K is the most maps
and weights one of its terms applies; its runner takes a term of degree k
times D^(K - k), so on every frame every side is D^K times its value.  The
guard is generated from the row's terms: at a basis tuple where every side
is provably the zero vector (a structure constant or column it looks up is
zero, a weight it scales by is 0, or a product it multiplies through is the
zero tensor), the runner skips the instance, which cannot fail.  It yields
the other instances whose sides differ as they are, and only those are
divided by D^K and reduced here; `replay_violation`, `fill` and so
`linear_system` run the same runner in the mode that yields every
instance's sides and divide back the same way, so every value that leaves
the evaluator is exact and canonical.  Plain kinds are written without p,
and their frames bind p to the identity (`structure_twist`), so a stored
candidate twist takes no part in their checks; side conditions test that
slot.  The one check outside the table is the invertible tag, whose witness
is a kernel vector.  `fill` fills c'[i][j] of a constructed tensor with its
side, reduced, at (i, j), for each side of the fill table (`_FILLS`) and no
other; `first_difference` compares two docs' tensors by the row
"diagram-{role}".

Axiom inventory per kind (all over ordered label pairs (a, b), including
a = b, with p the twist):

* matching-hom-assoc:        (x .a y) .b p(z) = p(x) .a (y .b z)
* totally-compatible-hom-assoc: (x .a y) .b p(z) = p(x) .b (y .a z)
* compatible-hom-assoc:      the (a, b) + (b, a) sum of the matching shape
* matching-hom-jacobi:       [p(x),[y,z]_b]_a + [p(y),[z,x]_a]_b
                                               + [p(z),[x,y]_a]_b = 0
* compatible-hom-jacobi:     the same sum plus its (a <-> b) relabeling
* matching-hom-prelie:       p(x)*a(y*b z) - (x*a y)*b p(z)
                               = p(y)*b(x*a z) - (y*b x)*a p(z)
* dendriform-1..3 and tridendriform-1..7: the splitting identities; by
  default dendriform-3 reads p(x) on its right-hand side, and the toggle
  named by DENDRIFORM_AXIOM3_TWIST restores the bare-x reading
* rb kinds: hom-assoc (or hom-jacobi) for the single product, plus
  matching-rb on basis pairs:
      P_a(x) . P_b(y) = P_a(x . P_b(y)) + P_b(P_a(x) . y) + w_b P_a(x . y)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import lcm
from typing import NamedTuple

from .errors import (DimensionMismatch, FieldMismatch, KindMismatch,
                     NonFiniteFieldError, ParamError, ShapeError,
                     UnknownConditionError, require)
from ._runners import RUNNERS
from .linalg import (BilinearMap, LinearMap, _apply, _basis, _kernel_vector,
                     check_operand, sparse_tensor)
from .structures import (BRACKET, COMPATIBLE_HOM_ASSOC, COMPATIBLE_HOM_LIE,
                         HOM_ASSOC_MATCHING_RB, KIND_ROLES, MATCHING_HOM_ASSOC,
                         MATCHING_HOM_DENDRIFORM, MATCHING_HOM_LIE,
                         MATCHING_HOM_LIE_RB, MATCHING_HOM_PRELIE,
                         MATCHING_HOM_TRIDENDRIFORM, PLAIN_ASSOC_MATCHING_RB,
                         PLAIN_LIE_MATCHING_RB, TOTALLY_COMPATIBLE_HOM_ASSOC,
                         AlgebraDoc, CheckReport, Violation, make_report)

DENDRIFORM_AXIOM3_TWIST = "dendriform-axiom3-twist"
_KNOWN_TOGGLES = frozenset({DENDRIFORM_AXIOM3_TWIST})

SIDE_CONDITIONS = ("endomorphism", "multiplicative", "commutes", "centroid",
                   "invertible")


# --- the identity table ------------------------------------------------------

class _Law(NamedTuple):
    axiom: str
    labels: str       # label variables, quantified over ordered label tuples
    lhs: str
    rhs: tuple        # right-hand sides, compared with lhs in turn
    when: str | None


def _law(axiom, labels, lhs, *rhs, when=None):
    return _Law(axiom, labels, lhs, rhs, when)


def _tables():
    """(laws per structure kind, (per-role flag, laws) per map tag, the fill
    row per side fill evaluates)."""
    def rb(lie, p):
        # p(slot) is the twisted slot, or the bare slot on a plain kind
        x, y, z = map(p, "XYZ")
        if lie:
            single = _law("hom-jacobi", "", f"m({x}, m(Y, Z)) + m({y}, m(Z, X))"
                                            f" + m({z}, m(X, Y))", "0")
        else:
            single = _law("hom-assoc", "", f"m(m(X, Y), {z})", f"m({x}, m(Y, Z))")
        return (single,
                _law("matching-rb", "ab", "m(P.a(X), P.b(Y))",
                     "P.a(m(X, P.b(Y))) + P.b(m(P.a(X), Y)) + w.b(P.a(m(X, Y)))"))

    dendriform_3 = "right.a(left.b(X, Y), p(Z)) + right.b(right.a(X, Y), p(Z))"
    structure = {
        MATCHING_HOM_ASSOC: (
            _law("matching-hom-assoc", "ab", "dot.b(dot.a(X, Y), p(Z))",
                 "dot.a(p(X), dot.b(Y, Z))"),),
        TOTALLY_COMPATIBLE_HOM_ASSOC: (
            _law("totally-compatible-hom-assoc", "ab", "dot.b(dot.a(X, Y), p(Z))",
                 "dot.b(p(X), dot.a(Y, Z))"),),
        COMPATIBLE_HOM_ASSOC: (
            _law("compatible-hom-assoc", "ab",
                 "dot.b(dot.a(X, Y), p(Z)) + dot.a(dot.b(X, Y), p(Z))",
                 "dot.a(p(X), dot.b(Y, Z)) + dot.b(p(X), dot.a(Y, Z))"),),
        MATCHING_HOM_LIE: (
            _law("matching-hom-jacobi", "ab",
                 "bracket.a(p(X), bracket.b(Y, Z)) + bracket.b(p(Y), bracket.a(Z, X))"
                 " + bracket.b(p(Z), bracket.a(X, Y))", "0"),
            _law("mhl-symmetry", "ab", "bracket.b(p(X), bracket.a(Y, Z))",
                 "bracket.a(p(X), bracket.b(Y, Z))", when="verbose")),
        COMPATIBLE_HOM_LIE: (
            _law("compatible-hom-jacobi", "ab",
                 "bracket.b(p(X), bracket.a(Y, Z)) + bracket.b(p(Y), bracket.a(Z, X))"
                 " + bracket.b(p(Z), bracket.a(X, Y)) + bracket.a(p(X), bracket.b(Y, Z))"
                 " + bracket.a(p(Y), bracket.b(Z, X)) + bracket.a(p(Z), bracket.b(X, Y))",
                 "0"),),
        MATCHING_HOM_PRELIE: (
            _law("matching-hom-prelie", "ab",
                 "star.a(p(X), star.b(Y, Z)) - star.b(star.a(X, Y), p(Z))",
                 "star.b(p(Y), star.a(X, Z)) - star.a(star.b(Y, X), p(Z))"),),
        MATCHING_HOM_DENDRIFORM: (
            _law("dendriform-1", "ab", "left.b(left.a(X, Y), p(Z))",
                 "left.a(p(X), left.b(Y, Z)) + left.b(p(X), right.a(Y, Z))"),
            _law("dendriform-2", "ab", "left.b(right.a(X, Y), p(Z))",
                 "right.a(p(X), left.b(Y, Z))"),
            _law("dendriform-3", "ab", dendriform_3, "right.a(p(X), right.b(Y, Z))",
                 when=DENDRIFORM_AXIOM3_TWIST),
            _law("dendriform-3", "ab", dendriform_3, "right.a(X, right.b(Y, Z))",
                 when="!" + DENDRIFORM_AXIOM3_TWIST)),
        MATCHING_HOM_TRIDENDRIFORM: (
            _law("tridendriform-1", "ab", "left.b(left.a(X, Y), p(Z))",
                 "left.a(p(X), left.b(Y, Z)) + left.b(p(X), right.a(Y, Z))"
                 " + left.a(p(X), middle.b(Y, Z))"),
            _law("tridendriform-2", "ab", "left.b(right.a(X, Y), p(Z))",
                 "right.a(p(X), left.b(Y, Z))"),
            _law("tridendriform-3", "ab", "right.a(p(X), right.b(Y, Z))",
                 "right.a(left.b(X, Y), p(Z)) + right.b(right.a(X, Y), p(Z))"
                 " + right.a(middle.b(X, Y), p(Z))"),
            _law("tridendriform-4", "ab", "middle.b(right.a(X, Y), p(Z))",
                 "right.a(p(X), middle.b(Y, Z))"),
            _law("tridendriform-5", "ab", "middle.b(left.a(X, Y), p(Z))",
                 "middle.b(p(X), right.a(Y, Z))"),
            _law("tridendriform-6", "ab", "left.b(middle.a(X, Y), p(Z))",
                 "middle.a(p(X), left.b(Y, Z))"),
            _law("tridendriform-7", "ab", "middle.b(middle.a(X, Y), p(Z))",
                 "middle.a(p(X), middle.b(Y, Z))")),
        HOM_ASSOC_MATCHING_RB: rb(False, "p({})".format),
        MATCHING_HOM_LIE_RB: rb(True, "p({})".format),
        PLAIN_ASSOC_MATCHING_RB: rb(False, str),
        PLAIN_LIE_MATCHING_RB: rb(True, str),
    }

    # Laws on the map f, and between two docs.  A per-role tag is checked
    # once per role of the doc, with m bound to that role's maps and m2 to
    # the second doc's, and "{role}" in its axiom-id filled in; the flag
    # "alternating" is set for the bracket role.
    mult = "f(m.a(X, Y))", "m.a(f(X), f(Y))"
    maps = {
        "endomorphism": (True, (_law("endomorphism", "a", *mult),)),
        "multiplicative": (True, (_law("multiplicative", "a", *mult),)),
        "commutes": (False, (_law("commutes", "a", "f(P.a(X))", "P.a(f(X))"),)),
        "centroid": (True, (
            _law("centroid", "a", "f(m.a(X, Y))", "m.a(f(X), Y)", when="alternating"),
            _law("centroid", "a", "f(m.a(X, Y))", "m.a(f(X), Y)", "m.a(X, f(Y))",
                 when="!alternating"))),
        "morphism": (True, (
            _law("morphism-{role}", "a", "f(m.a(X, Y))", "m2.a(f(X), f(Y))"),)),
        "twist-intertwine": (False, (
            _law("twist-intertwine", "", "p2(f(X))", "f(p(X))"),)),
        "operator-intertwine": (False, (
            _law("operator-intertwine", "a", "f(P.a(X))", "P2.a(f(X))"),)),
        "diagram": (True, (_law("diagram-{role}", "a", "m.a(X, Y)", "m2.a(X, Y)"),)),
    }

    # Every side fill evaluates, with f the map under test and g a power or
    # the inverse of it: each constructed tensor of halg.constructions, by
    # the construction (or tensor operation) that fills it.
    fills = (
        # the tensor operations; yau_twist fills the first, centroid_twist's
        # variant 1 the second
        "f(m(X, Y))", "m(f(X), Y)", "m(X, f(Y))", "m(Y, X)",
        "g(m(X, Y))",                                       # untwist, derived_algebra
        "m(f(X), f(Y))",                                    # centroid_twist, variant 2
        "dot.a(X, Y) - dot.a(Y, X)", "m(X, Y) - m(Y, X)",   # commutator
        "star.a(X, Y) - star.a(Y, X)",                      # prelie_commutator
        *(f"f({role}.a(X, Y))"                              # dendriform_twist
          for role in KIND_ROLES[MATCHING_HOM_TRIDENDRIFORM]),
        *(" + ".join(f"{role}.a(X, Y)" for role in KIND_ROLES[kind])  # dendriform_sum
          for kind in (MATCHING_HOM_DENDRIFORM, MATCHING_HOM_TRIDENDRIFORM)),
        "right.a(X, Y) - left.a(Y, X)",                     # dendriform_to_prelie
        "m(X, P.a(Y)) + w.a(m(X, Y))", "m(P.a(X), Y)",      # rb_to_dendriform
        "m(X, P.a(Y))", "w.a(m(X, Y))",                     # rb_to_tridendriform
        "m(P.a(X), Y) - m(Y, P.a(X)) - w.a(m(Y, X))",       # rb_to_prelie
    )
    return structure, maps, {side: _law("fill", "a", side) for side in fills}


_STRUCTURE_LAWS, _MAP_LAWS, _FILLS = _tables()


# --- runners -----------------------------------------------------------------
#
# Each row has one runner, generated ahead of time into halg._runners by
# halg._codegen (which says how a row becomes its runner) and imported with
# this module, so no halg process parses, generates or compiles a law.
# RUNNERS[row] is (arity, degree, run, linear): linear names the maps each
# of the row's terms applies exactly once.  run(F, tuples, pts, every, R)
# reads the maps the row names from the frame F, the role under check as
# R, and yields (labs, ix, held, sides) over the label tuples and basis
# tuples given: with every set, every instance's sides, else only the
# instances whose guard does not prove every side zero and where some rhs
# differs from the lhs raw.  Every side it yields is D^K times its value,
# K the row's degree: run brings each term there by powers of D.

@dataclass(frozen=True, eq=False, slots=True)
class _Compiled:
    axiom: str
    labels: str
    arity: int
    degree: int       # K: every side run yields is D^K times its value
    run: object       # run(F, tuples, pts, every, R), as above
    law: _Law         # its row
    role: str | None  # R, the role it is checked on


@lru_cache(maxsize=None)
def _compile(law: _Law, role) -> _Compiled:
    """law checked on role, by the runner its roles share."""
    arity, degree, run, _ = RUNNERS[law]
    return _Compiled(law.axiom.format(role=role), law.labels, arity, degree, run, law, role)


def _active(laws, flags):
    def runs(when):
        if when is None:
            return True
        if when.startswith("!"):
            return when[1:] not in flags
        return when in flags
    return [law for law in laws if runs(law.when)]


@lru_cache(maxsize=None)
def _structure_laws(kind, twist3, verbose):
    flags = {DENDRIFORM_AXIOM3_TWIST} if twist3 else set()
    if verbose:
        flags.add("verbose")
    return tuple(_compile(law, None) for law in _active(_STRUCTURE_LAWS[kind], flags))


@lru_cache(maxsize=None)
def _map_laws(tag, role):
    flags = {"alternating"} if role == BRACKET else set()
    return tuple(_compile(law, role) for law in _active(_MAP_LAWS[tag][1], flags))


# --- frames and the evaluator --------------------------------------------------

@lru_cache(maxsize=32)
def _points(dim, arity):
    return tuple(product(range(dim), repeat=arity))


class _Frame(dict):
    """Names bound to maps by _scaled.  A key "n~" not yet bound is made on
    first use as the sparse form of n's tensor, or of each of its per-label
    tensors, so a frame makes sparse forms only for the tensors its laws
    multiply through, and keeps them no longer than itself."""

    def __missing__(self, key):
        if not key.endswith("~"):
            raise KeyError(key)
        dense = self[key[:-1]]
        if isinstance(dense, dict):
            sparse = {lab: sparse_tensor(c) for lab, c in dense.items()}
        else:
            sparse = sparse_tensor(dense)
        self[key] = sparse
        return sparse


_NESTED = (dict, list, tuple)


def _denominators(v, out: set) -> set:
    """out with the denominator of every scalar of v added.  v is a dict,
    list or tuple whose items are all scalars or all such containers."""
    items = tuple(v.values()) if isinstance(v, dict) else v
    if items and isinstance(items[0], _NESTED):
        for x in items:
            _denominators(x, out)
    else:
        out.update(x.denominator for x in items if type(x) is not int)
    return out


def _times(v, d):
    """v, nested as for _denominators, with each scalar x replaced by the
    int d * x; d is a multiple of every denominator in v."""
    if isinstance(v, dict):
        return dict(zip(v, _times(tuple(v.values()), d)))
    if v and isinstance(v[0], _NESTED):
        return tuple(_times(x, d) for x in v)
    return tuple(x * d if type(x) is int else x.numerator * (d // x.denominator)
                 for x in v)


def _scaled(maps: dict, field, dim) -> _Frame:
    """The frame binding maps, the basis of dim, the sign "-" and D.  Over
    Q every map and weight in maps is bound times one common D, the lcm of
    every denominator they hold; over F_p, D = 1 and maps are bound as they
    are.  Every map reaches here checked (check_map), so its entries are
    canonical scalars."""
    d = 1 if field.is_prime_field else lcm(*_denominators(maps, {1}))
    frame = _Frame(maps if d == 1 else _times(maps, d), D=d)
    frame["basis"], frame["-"] = _basis(dim), -1
    return frame


def _frame(doc: AlgebraDoc, f=None, dst=None, g=None) -> _Frame:
    """Every name a law may use, bound to doc's maps by _scaled: each role
    by its name, per label; linear maps as their column tuples, p as the
    structure twist's (the identity's as the basis), P and w as the
    operators and weights, and on an rb kind m as the first role's map at
    the first label, its single product; no name is bound per role, as a
    law's role is its runner's argument R.  f and g, unless None, are the
    map under test and a power or the inverse of it (columns).  dst,
    unless None, is a second doc of doc's field and carrier, bound as
    <role>2, p2 and P2, so one D scales both docs, f and g."""
    require(doc, AlgebraDoc, "doc")
    basis = _basis(doc.dim)
    maps = {name: cols for name, cols in (("f", f), ("g", g)) if cols is not None}
    for suffix, d in (("", doc), ("2", dst)) if dst is not None else (("", doc),):
        twist = d.structure_twist()
        for role, fam in d.families.items():
            maps[role + suffix] = {lab: fam.maps[lab].c for lab in d.labels}
        maps["p" + suffix] = basis if twist.rows is basis else twist.columns()
        if d.operators is not None:
            maps["P" + suffix] = {lab: d.operators.ops[lab].columns() for lab in d.labels}
    if doc.operators is not None:
        # an rb kind: m is its single product
        maps["m"] = maps[KIND_ROLES[doc.kind][0]][doc.labels[0]]
        maps["w"] = doc.operators.weights
    return _scaled(maps, doc.field, doc.dim)


def _plan(laws, frame, labels, field):
    """Each law as frame runs it: (law, reducer, basis tuples, label
    tuples), with every basis tuple of the law's arity and every ordered
    tuple of labels of its label count.  law.run yields sides D^K times
    their values, so the reducer is field.reduce where D^K is 1, and
    otherwise x -> x / D^K reduced: the one place a reducer is chosen."""
    dim, d = len(frame["basis"]), frame["D"]
    for law in laws:
        scale = d ** law.degree
        red = field.reduce if scale == 1 else (
            lambda x, scale=scale: field.reduce(Fraction(x, scale)))
        yield (law, red, _points(dim, law.arity),
               tuple(product(labels, repeat=len(law.labels))))


def _violations(plan, frame, points=None, tuples=None):
    """Every failed instance of the laws of plan (_plan's entries) on frame
    as it is bound now, in (law, labels, basis, rhs) order: the one loop
    every check runs, and a verdict is whether it yields nothing.  Each
    law's runner skips the instances whose guard proves every side zero and
    yields the others where some rhs differs from the lhs raw, D^K times
    their values; here the lhs and each rhs that differs from it raw are
    divided back and reduced by the plan's reducer, and a violation is one
    whose reduced sides still differ.  points and tuples, where given,
    replace the plan's basis tuples and label tuples (tuples then name as
    many labels as each law of plan takes)."""
    for law, red, pts, labs in plan:
        for at, ix, _, (left, *rights) in law.run(
                frame, labs if tuples is None else tuples,
                pts if points is None else points, False, law.role):
            lc = tuple(map(red, left))
            for r in rights:
                if r != left and (rc := tuple(map(red, r))) != lc:
                    yield Violation(law.axiom, at, ix, lc, rc)


def _laws_for(doc: AlgebraDoc, toggles, verbose: bool):
    """doc's compiled structure laws under toggles and verbose, and its frame."""
    frame = _frame(doc)
    if toggles is not None:
        require(toggles, dict, "axiom_toggles")
        unknown = set(toggles) - _KNOWN_TOGGLES
        if unknown:
            raise ParamError(f"unknown axiom toggles {sorted(unknown)}")
        for name, value in toggles.items():
            if not isinstance(value, bool):
                raise ParamError(f"axiom toggle {name} must be a bool, got {value!r}")
    twist3 = True if toggles is None else toggles.get(DENDRIFORM_AXIOM3_TWIST, True)
    return _structure_laws(doc.kind, twist3, bool(verbose)), frame


def check_structure(doc: AlgebraDoc, verbose: bool = False,
                    axiom_toggles=None) -> CheckReport:
    """Check every defining identity of doc's kind on all basis tuples.

    Violations come back in a fixed (axiom, a, b, i, j, k) order.  With
    `verbose` set, matching-hom-lie docs additionally run the redundant
    bracket-symmetry diagnostic (axiom-id "mhl-symmetry").
    """
    laws, frame = _laws_for(doc, axiom_toggles, verbose)
    return make_report(_violations(_plan(laws, frame, doc.labels, doc.field), frame))


def structure_ok(doc: AlgebraDoc, axiom_toggles=None) -> bool:
    """check_structure's verdict without building the full report."""
    laws, frame = _laws_for(doc, axiom_toggles, False)
    plan = _plan(laws, frame, doc.labels, doc.field)
    return next(_violations(plan, frame), None) is None


def replay_violation(doc: AlgebraDoc, violation: Violation, axiom_toggles=None):
    """Re-evaluate a witness; returns the canonical (lhs, rhs) pair."""
    require(violation, Violation, "violation")
    laws, frame = _laws_for(doc, axiom_toggles, violation.axiom == "mhl-symmetry")
    for law, red, *_ in _plan(laws, frame, doc.labels, doc.field):
        if law.axiom != violation.axiom:
            continue
        labels, basis = violation.labels, violation.basis
        if (not isinstance(labels, (list, tuple)) or not isinstance(basis, (list, tuple))
                or len(labels) != len(law.labels)
                or not all(lab in doc.labels for lab in labels)
                or len(basis) != law.arity
                or not all(type(i) is int and 0 <= i < doc.dim for i in basis)):
            raise ParamError(f"{violation.axiom} witnesses take {len(law.labels)} "
                             f"of the doc's labels and {law.arity} basis indices "
                             f"below {doc.dim}")
        (_, _, _, sides), = law.run(frame, (labels,), (basis,), True, law.role)
        return tuple(tuple(map(red, side)) for side in sides[:2])
    raise ParamError(f"axiom {violation.axiom!r} is not checked for kind {doc.kind!r}")


# --- side conditions ---------------------------------------------------------

def _role_laws(tag, doc):
    """The compiled laws of a map tag, for each of doc's roles in role
    order, or for the role None where the tag is not checked per role."""
    roles = KIND_ROLES[doc.kind] if _MAP_LAWS[tag][0] else (None,)
    return [law for role in roles for law in _map_laws(tag, role)]


def _require_operators(tag, doc):
    # commutes reads the operators, and so does their search (tag None)
    if tag in (None, "commutes") and doc.operators is None:
        raise ShapeError(f"{tag or 'an operator search'} requires an operator family",
                         "operators")


def _map_violations(tag, frame, doc):
    """Violations of a map or two-doc tag, role by role (_role_laws)."""
    return _violations(_plan(_role_laws(tag, doc), frame, doc.labels, doc.field), frame)


def _pair(src: AlgebraDoc, dst: AlgebraDoc, what: str) -> None:
    """Refuse two docs unless they share one field, kind, label set, weights
    and carrier, as a law between them needs."""
    require(src, AlgebraDoc, "src")
    require(dst, AlgebraDoc, "dst")
    if src.field != dst.field:
        raise FieldMismatch(f"{what} requires one common field")
    if src.kind != dst.kind:
        raise KindMismatch(f"{what} between {src.kind} and {dst.kind}")
    if src.labels != dst.labels or src.operators and (src.operators.weights
                                                      != dst.operators.weights):
        raise KindMismatch(f"{what} requires identical labels and weights")
    if src.dim != dst.dim:
        raise DimensionMismatch(f"{what} requires one carrier dimension")


def _tag_violations(tags, frame, doc: AlgebraDoc, f: LinearMap):
    """Violations of each map tag in turn on frame, which binds f, the map
    under test (and the second doc of a law between two), already checked
    by check_operand: invertible reads f itself, every other tag runs its
    laws role by role."""
    for tag in tags:
        if tag == "invertible":
            v = _kernel_vector(f)
            if v is not None:
                yield Violation("invertible", (), (), v, _apply(f, v))
            continue
        _require_operators(tag, doc)
        yield from _map_violations(tag, frame, doc)


# check_operand's mismatch message for the map under test, by its path
_MISMATCH = {"candidate": "candidate map of the wrong dimension",
             "morphism": "morphism maps must match both carriers"}


def check_side_conditions(doc: AlgebraDoc, conditions,
                          candidate: LinearMap | None = None) -> CheckReport:
    """Check hypothesis tags for a map against doc's products and operators.

    The map under test is `candidate` when given, else the doc's stored twist
    (identity if none).  Tags: endomorphism, multiplicative (the same
    equation, named for its two uses), commutes, centroid, invertible.
    conditions is a sequence of those tags: a list or a tuple.
    """
    if not isinstance(conditions, (list, tuple)):
        raise ParamError("side conditions must be a sequence of tags, not a "
                         + type(conditions).__name__)
    require(doc, AlgebraDoc, "doc")
    if candidate is not None:
        check_operand(candidate, doc.field, doc.dim, "candidate", _MISMATCH["candidate"])
    p = candidate if candidate is not None else doc.twist_map()

    def known():
        for tag in conditions:
            if tag not in SIDE_CONDITIONS:
                raise UnknownConditionError(f"unknown side condition {tag!r}")
            yield tag
    return make_report(_tag_violations(known(), _frame(doc, f=p.columns()), doc, p))


def check_morphism(f: LinearMap, src: AlgebraDoc, dst: AlgebraDoc) -> CheckReport:
    """Check that f carries src's structure to dst's: f(x * y) = f(x) *' f(y)
    per role and label, the structure twists intertwine (p' o f = f o p;
    a plain kind's is the identity, whatever candidate it stores), and on
    rb kinds the operators too (f o P_a = P'_a o f per label).  src and dst
    must share their field, kind, labels, weights and dimension."""
    _pair(src, dst, "morphism")
    check_operand(f, src.field, src.dim, "morphism", _MISMATCH["morphism"])
    tags = ("morphism", "twist-intertwine") + (
        ("operator-intertwine",) if src.operators is not None else ())
    return make_report(_tag_violations(tags, _frame(src, f.columns(), dst), src, f))


def first_difference(src: AlgebraDoc, dst: AlgebraDoc) -> Violation | None:
    """The first entry where src's and dst's tensors differ, in (role, label,
    i, j) order, as a diagram-{role} witness; None when they agree."""
    _pair(src, dst, "comparison")
    return next(_map_violations("diagram", _frame(src, dst=dst), src), None)


# --- tensors filled from a side ------------------------------------------------

def fill(side, field, frame, lab=None) -> BilinearMap:
    """The tensor whose c'[i][j] is side at the basis pair (i, j), reduced.
    side is a row of the fill table (_FILLS; else a ParamError), run as a
    law, reduced as _plan picks, and reads its names and basis from frame
    (_frame, _scaled), with a at lab."""
    if side not in _FILLS:
        raise ParamError(f"{side!r} is not a row of the fill table")
    (law, red, pts, each), = _plan((_compile(_FILLS[side], None),), frame, (lab,), field)
    dim = len(frame["basis"])
    entries = [tuple(map(red, sides[0])) for *_, sides
               in law.run(frame, each, pts, True, None)]
    return BilinearMap(field, tuple(tuple(entries[i * dim:(i + 1) * dim])
                                    for i in range(dim)))


# --- searches ----------------------------------------------------------------

def linear_system(doc: AlgebraDoc, tag: str) -> list:
    """The rows, over the entries of f taken row-major, of the linear system
    that the map law `tag` imposes on doc.  Column r * dim + s binds f to the
    matrix unit E_rs; there each failed instance's reduced lhs - rhs is its
    residual, and the instances that hold have residual 0.  A row is keyed by
    (axiom, labels, basis, coordinate).  tag is a side condition with a map
    law each of whose terms applies f exactly once, such as commutes; any
    other tag is a ParamError, such as the two-doc morphism, or endomorphism,
    whose m.a(f(X), f(Y)) is quadratic in f.  Sound only for laws with one
    right-hand side; a tag with a law of several on doc's roles (centroid on
    a product that is not alternating) is refused."""
    frame = _frame(doc)
    if tag not in SIDE_CONDITIONS or tag not in _MAP_LAWS:
        raise ParamError(f"linear_system takes a side condition with a map law, "
                         f"not {tag!r}")
    if any("f" not in RUNNERS[law][3] for law in _MAP_LAWS[tag][1]):
        raise ParamError(f"{tag} has a term that does not apply f exactly once, "
                         f"so it is not one linear system")
    _require_operators(tag, doc)
    if any(len(law.law.rhs) > 1 for law in _role_laws(tag, doc)):
        raise ParamError(f"{tag} has a law with several right-hand sides on "
                         f"{doc.kind}, so it is not one linear system")
    dim, red, d = doc.dim, doc.field.reduce, frame["D"]
    units, zero = [tuple(d * x for x in e) for e in frame["basis"]], (0,) * dim
    rows = {}
    for col, (r, s) in enumerate(_points(dim, 2)):
        frame["f"] = tuple(units[r] if t == s else zero for t in range(dim))
        for v in _map_violations(tag, frame, doc):
            for k, (a, b) in enumerate(zip(v.lhs, v.rhs)):
                if a != b:
                    key = (v.axiom, v.labels, v.basis, k)
                    rows.setdefault(key, [0] * dim * dim)[col] = red(a - b)
    return list(rows.values())


def candidate_check(doc: AlgebraDoc, tag: str | None = None):
    """ok(candidate, points=None, tuples=None) -> bool for a search that
    varies one kind of map on doc.  Each law's reducer, basis tuples and
    label tuples are resolved once here (_plan) on one frame built once
    from doc, as one plan over every role; a decision binds the candidate
    in that frame and runs those runners, each given its law's role, at
    points and tuples in place of the plan's own where given, and the first
    violation decides (_violations).

    Without a tag the operators vary.  The laws without label variables
    name neither P nor w, so they are decided here, once, on doc, and the
    result is None when one fails.  Otherwise candidate maps labels to the
    column tuples of their operators (a label it leaves out keeps the
    operator bound last), and ok decides the laws with label variables, on
    an rb kind the matching Rota-Baxter identity alone, at every ordered
    pair of doc's labels, or at the pairs of tuples.  The instance at
    (a, b) reads P_a, P_b and w_b only, so a search need decide each such
    triple once.  A doc without operators is the ShapeError at operators
    that commutes raises.

    With the tag "endomorphism" or "commutes", f varies: candidate, the
    tuple of f's columns, is bound as f, and ok decides the tag's laws role
    by role as check_side_conditions does.  A candidate skips
    check_operand: a search makes every candidate canonical.

    doc is over F_p, whose frames bind D = 1, so candidates are bound as
    they come; a doc over Q is a NonFiniteFieldError, and any other tag a
    ParamError.
    """
    laws, frame = _laws_for(doc, None, False)
    field = doc.field
    if not field.is_prime_field:
        raise NonFiniteFieldError("candidate_check requires a prime field")
    if tag not in (None, "endomorphism", "commutes"):
        raise ParamError(f"candidate_check takes no tag {tag!r}")
    _require_operators(tag, doc)
    if tag is None:
        fixed = _plan([law for law in laws if not law.labels], frame, doc.labels, field)
        if next(_violations(fixed, frame), None) is not None:
            return None
        laws, bind = [law for law in laws if law.labels], frame["P"].update
    else:
        laws, bind = _role_laws(tag, doc), partial(frame.__setitem__, "f")
    plan = list(_plan(laws, frame, doc.labels, field))

    def ok(candidate, points=None, tuples=None):
        bind(candidate)
        return next(_violations(plan, frame, points, tuples), None) is None
    return ok
