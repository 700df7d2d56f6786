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
  ...), and ``m``, the product under test: the single product of an rb kind,
  or, in a side condition or a law between two docs, the role being
  checked, whose map in the second doc (a morphism's target) is ``m2``.
  Linear maps: ``p`` the structure twist and ``p2`` the second doc's, ``f``
  the map under test, ``P`` the operators and ``P2`` the second doc's, and
  the weights ``w``, which scale.
* Quantifiers.  The label variables range over all ordered tuples of the
  doc's labels (a law without any has one instance), and then the slots
  over all basis tuples.  A witness carries the bound labels and the basis
  tuple.  A side condition or a law between two docs marked per role runs
  once for each role of the kind, in role order.
* Flags.  A law tagged `when` runs only under that flag (``"!flag"``: only
  without it): "verbose", the dendriform toggle, and "alternating" for the
  bracket role.

Each row compiles once per process into one Python function per side and
binds to a doc's maps per call, through a frame; a product that a side
multiplies through is bound in its sparse form, made once per call.  Over Q
a frame binds every tensor, twist, operator column, weight and candidate
map as ints times one common denominator D, the lcm of every denominator it
binds (for a law between two docs, of both docs' and the map's), so the
evaluator runs on ints alone; over F_p, D = 1.  A row's degree K is the
most maps and weights one of its terms applies, and where D is not 1 it
compiles each term of a lower degree k times D^(K - k), so every side is
D^K times its value.  Each row also compiles a guard from the same terms:
at a basis tuple where every side is provably the zero vector (a structure
constant or column it looks up is zero, or a weight it scales by is 0),
the evaluator skips the instance, which cannot fail.  It compares the
other instances' sides as they are and only when they differ divides them
by D^K and reduces them; `replay_violation`, `fill` and so `linear_system`
divide back the same way, so every value that leaves the evaluator is
exact and canonical.  Plain kinds are written without p, and their
frames bind p to the identity (`structure_twist`), so a stored candidate
twist takes no part in their checks; side conditions test that slot.  The
one check outside the table is the invertible tag, whose witness is a
kernel vector.  `fill` fills c'[i][j] of a constructed tensor with its
side, reduced, at (i, j); `first_difference` compares two docs' tensors by
the row "diagram-{role}".

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

import ast
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import (DimensionMismatch, FieldMismatch, KindMismatch,
                     NonFiniteFieldError, ParamError, ShapeError,
                     UnknownConditionError, require)
from .linalg import (BilinearMap, LinearMap, _basis, apply_map, apply_raw,
                     bilinear_raw, check_map, kernel_vector, sparse_tensor)
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
    """(laws per structure kind, (per-role flag, laws) per map tag)."""
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
    return structure, maps


_STRUCTURE_LAWS, _MAP_LAWS = _tables()


# --- compiling laws ----------------------------------------------------------
#
# A law compiles once per process into one Python function per side,
# side(B, E, ix) -> the side's unreduced vector at the basis tuple ix, where
# E is the basis and B the tuple of maps the law names, bound once per label
# tuple.  Linear maps are bound as their column tuples.  A map on basis
# slots only is a table lookup (a structure constant, or a column); every
# other node calls a linalg kernel, and a side of several terms adds them
# coordinate by coordinate.  A bilinear map that a side multiplies through
# is read in its sparse form (linalg.sparse_tensor), bound under its name
# with "~" after the role ("dot~.a", "m~"); lookups read the dense tensor.
#
# From the same term trees each law also compiles its guard,
# zero(B, E, ix), which holds when every side is provably the zero vector
# at ix: a term is provably zero when a structure constant c[i][j] or a
# column it looks up is the zero vector, when it scales by a weight w that
# is 0, or when a map is applied to a provably zero term.  A side is zero
# when all its terms are (the empty side always is).  The guard reads only
# lookups and weights, so it costs far less than the sides; an instance it
# holds at cannot fail, and the evaluator skips it.
#
# A law's degree K is the largest number of maps and weights one of its
# terms applies ("-" is a sign, not a map).  A frame binds every scalar
# times its D (_scaled), so a term of degree k evaluates to D^k times its
# value; compiled with pad set, for a frame whose D is not 1, a law
# multiplies each such term by D^(K - k), read as the scalar name "D".
# Frames with D = 1, every frame over F_p, run the law compiled without it.

def _terms(node):
    """The side node as a list of term trees: 0, 1, 2 for X, Y, Z, (name, t)
    or (name, t, u) for a call, and ("-", t) for a subtracted term t."""
    if isinstance(node, ast.BinOp):
        right = _terms(node.right)
        if isinstance(node.op, ast.Sub):
            right = [("-", t) for t in right]
        return _terms(node.left) + right
    if isinstance(node, ast.Call):
        return [(ast.unparse(node.func), *(t for t, in map(_terms, node.args)))]
    if isinstance(node, ast.Constant) and node.value == 0:
        return []
    return ["XYZ".index(node.id)]


def _ref(name, names):
    """B[...] for the map name; appended to names on first use."""
    if name not in names:
        names.append(name)
    return f"B[{names.index(name)}]"


def _is_scalar(name):
    return name.partition(".")[0] in ("-", "w", "D")


def _degree(term):
    """The number of maps and weights term applies."""
    if isinstance(term, int):
        return 0
    return (term[0] != "-") + sum(map(_degree, term[1:]))


def _padded(term, n):
    """term multiplied by D^n."""
    for _ in range(n):
        term = ("D", term)
    return term


def _lookup(term):
    """Whether term is a map applied to basis slots only: a table lookup."""
    return not _is_scalar(term[0]) and all(isinstance(t, int) for t in term[1:])


def _source(term, names):
    """Python expression for term; each map it names is appended to names
    once and read as B[its index]."""
    if isinstance(term, int):
        return f"E[ix[{term}]]"
    name, *args = term
    if _lookup(term):
        return _ref(name, names) + "".join(f"[ix[{t}]]" for t in args)
    if len(args) == 2:
        key, dot, var = name.partition(".")
        return (f"mul({_ref(key + '~' + dot + var, names)}, "
                f"{_source(args[0], names)}, {_source(args[1], names)})")
    arg, = args
    if _is_scalar(name):
        return f"[{_ref(name, names)} * v for v in {_source(arg, names)}]"
    return f"app({_ref(name, names)}, {_source(arg, names)})"


def _zero_source(term, names):
    """Python condition under which term is provably the zero vector, or
    None when nothing can prove it (a basis slot)."""
    if isinstance(term, int):
        return None
    if _lookup(term):
        return f"not any({_source(term, names)})"
    name, *args = term
    conds = [f"not {_ref(name, names)}"] if name.partition(".")[0] == "w" else []
    conds += filter(None, (_zero_source(t, names) for t in args))
    return " or ".join(conds) or None


def _side_source(side, names):
    if not side:
        return "[0] * len(E)"
    if len(side) == 1:
        return _source(side[0], names)
    vs = [f"v{i}" for i in range(len(side))]
    return (f"[{' + '.join(vs)} for {', '.join(vs)} in "
            f"zip({', '.join(_source(t, names) for t in side)})]")


def _guard_source(sides, names):
    conds = [_zero_source(t, names) for side in sides for t in side]
    if None in conds:
        return "False"
    return " and ".join(f"({c})" for c in conds) or "True"


def _slots(term):
    if isinstance(term, int):
        return {term}
    return set().union(*map(_slots, term[1:]))


class _Compiled(NamedTuple):
    axiom: str
    labels: str
    arity: int
    degree: int       # K: every side is D^K times its value
    refs: tuple       # per B[i]: (frame key, index of its label variable or None)
    lhs: object       # lhs(B, E, ix) -> unreduced vector
    rhs: tuple        # the same for each right-hand side
    zero: object      # zero(B, E, ix) -> whether every side is provably zero

    def bind(self, frame, labs):
        """B: the maps the sides read, at the label tuple labs."""
        return tuple(frame[key] if i is None else frame[key][labs[i]]
                     for key, i in self.refs)


@lru_cache(maxsize=None)
def _compile(law: _Law, role, pad) -> _Compiled:
    """law compiled; with pad set, each term is brought to the law's degree
    by powers of D, so a law whose terms all have its degree is the one
    compiled without pad."""
    sides = [_terms(ast.parse(side, mode="eval").body) for side in (law.lhs, *law.rhs)]
    arity = 1 + max(s for side in sides for t in side for s in _slots(t))
    degree = max(_degree(t) for side in sides for t in side)
    if pad:
        if all(_degree(t) == degree for side in sides for t in side):
            return _compile(law, role, False)
        sides = [[_padded(t, degree - _degree(t)) for t in side] for side in sides]
    names = []
    kernels = {"mul": bilinear_raw, "app": apply_raw}
    zero, lhs, *rhs = [eval(f"lambda B, E, ix: {source}", kernels) for source in
                       (_guard_source(sides, names),
                        *(_side_source(side, names) for side in sides))]
    refs = tuple((key, law.labels.index(var) if var else None)
                 for key, _, var in (name.partition(".") for name in names))
    return _Compiled(law.axiom.format(role=role), law.labels, arity, degree, refs,
                     lhs, tuple(rhs), zero)


def _active(laws, flags):
    def runs(when):
        if when is None:
            return True
        if when.startswith("!"):
            return when[1:] not in flags
        return when in flags
    return [law for law in laws if runs(law.when)]


@lru_cache(maxsize=None)
def _structure_laws(kind, twist3, verbose, pad):
    flags = {DENDRIFORM_AXIOM3_TWIST} if twist3 else set()
    if verbose:
        flags.add("verbose")
    return tuple(_compile(law, None, pad)
                 for law in _active(_STRUCTURE_LAWS[kind], flags))


@lru_cache(maxsize=None)
def _map_laws(tag, role, pad):
    flags = {"alternating"} if role == BRACKET else set()
    return tuple(_compile(law, role, pad) for law in _active(_MAP_LAWS[tag][1], flags))


# --- frames and the evaluator --------------------------------------------------

@lru_cache(maxsize=32)
def _points(dim, arity):
    return tuple(product(range(dim), repeat=arity))


class _Frame(dict):
    """Names bound to maps.  A key "n~" not yet bound is made on first use
    as the sparse form of n's tensor, or of each of its per-label tensors,
    so a frame makes sparse forms only for the tensors its laws multiply
    through, and keeps them no longer than itself.  D, the common
    denominator its maps are scaled by, is bound only where it is not 1
    (_scaled), so frames over F_p hold no more names than they read."""

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


def _names(doc: AlgebraDoc, f) -> _Frame:
    """Every name a law may use, bound to doc's tensors and maps as they
    are: linear maps as their column tuples, p as the structure twist's (the
    identity's as the basis), f to the columns f unless None, m to the
    first role's map at the first label, which is the single product of an
    rb kind, and the basis and the sign "-"."""
    twist, basis = doc.structure_twist(), _basis(doc.dim)
    names = _Frame({role: {lab: fam.maps[lab].c for lab in doc.labels}
                    for role, fam in doc.families.items()}, basis=basis,
                   p=basis if twist.rows is basis else twist.columns())
    names["-"] = -1
    if f is not None:
        names["f"] = f
    names["m"] = names[KIND_ROLES[doc.kind][0]][doc.labels[0]]
    if doc.operators is not None:
        names["P"] = {lab: doc.operators.ops[lab].columns() for lab in doc.labels}
        names["w"] = doc.operators.weights
    return names


_UNSCALED = ("basis", "-")


def _scaled(field, *frames) -> tuple:
    """frames with every map and weight times one common D: over Q the lcm
    of every denominator they hold, bound as "D" where it is not 1; over
    F_p, and where D is 1, frames are returned as they are.  Over Q an
    entry that is neither an int nor a Fraction is a ShapeError; docs and
    candidates never hold one, but the tensor operations take maps as they
    are."""
    if field.is_prime_field:
        return frames
    maps = [{key: v for key, v in frame.items() if key not in _UNSCALED}
            for frame in frames]
    try:
        d = lcm(*_denominators(maps, {1}))
    except AttributeError:
        raise ShapeError("a map entry is not a canonical scalar", "map") from None
    if d == 1:
        return frames
    return tuple(_Frame(_times(m, d), basis=frame["basis"], D=d, **{"-": -1})
                 for m, frame in zip(maps, frames))


def _frame(doc: AlgebraDoc, f=None) -> _Frame:
    """doc's frame, with the map under test bound as f (its columns) unless
    None, scaled with it.  A doc that is not an AlgebraDoc is a
    ParamError."""
    require(doc, AlgebraDoc, "doc")
    frame = _names(doc, f)
    return frame if doc.field.is_prime_field else _scaled(doc.field, frame)[0]


def _frames(src: AlgebraDoc, dst: AlgebraDoc, f=None) -> tuple:
    """The frames of two docs of one field and carrier, scaled by one D,
    with f bound in src's as for _frame."""
    return _scaled(src.field, _names(src, f), _names(dst, None))


def _reducer(field, scale):
    """x -> the canonical scalar x / scale: reads a side evaluated at scale
    times its value."""
    if scale == 1:
        return field.reduce
    return lambda x: field.reduce(Fraction(x, scale))


def _violations(laws, frame, labels, field, points=None, mixed=False):
    """Every failed instance of the compiled laws, in (law, labels, basis)
    order.  An instance whose guard proves every side zero is skipped; the
    others compare their sides raw, D^K times their values, and divide them
    back and reduce them only when they differ.

    points, when given, replaces every basis tuple of the laws' arity; with
    mixed set, only the label tuples naming two distinct labels are taken.
    """
    basis, d, red = frame["basis"], frame.get("D", 1), field.reduce
    for law in laws:
        zero, lhs, rhss = law.zero, law.lhs, law.rhs
        if d != 1:
            red = _reducer(field, d ** law.degree)
        pts = _points(len(basis), law.arity) if points is None else points
        for labs in product(labels, repeat=len(law.labels)):
            if mixed and len(set(labs)) < 2:
                continue
            maps = law.bind(frame, labs)
            for ix in pts:
                if zero(maps, basis, ix):
                    continue
                left = lhs(maps, basis, ix)
                for rhs in rhss:
                    right = rhs(maps, basis, ix)
                    if left != right:
                        lc = tuple(map(red, left))
                        rc = tuple(map(red, right))
                        if lc != rc:
                            yield Violation(law.axiom, labs, ix, lc, rc)


def _laws_for(doc: AlgebraDoc, toggles, verbose: bool):
    """doc's compiled structure laws under toggles and verbose, and its frame."""
    frame = _frame(doc)
    if toggles is not None:
        require(toggles, dict, "axiom_toggles")
        unknown = set(toggles) - _KNOWN_TOGGLES
        if unknown:
            raise ParamError(f"unknown axiom toggles {sorted(unknown)}")
    twist3 = True if toggles is None else toggles.get(DENDRIFORM_AXIOM3_TWIST, True)
    pad = "D" in frame
    return _structure_laws(doc.kind, bool(twist3), bool(verbose), pad), frame


def check_structure(doc: AlgebraDoc, verbose: bool = False,
                    axiom_toggles=None) -> CheckReport:
    """Check every defining identity of doc's kind on all basis tuples.

    Violations come back in a fixed (axiom, a, b, i, j, k) order.  With
    `verbose` set, matching-hom-lie docs additionally run the redundant
    bracket-symmetry diagnostic (axiom-id "mhl-symmetry").
    """
    laws, frame = _laws_for(doc, axiom_toggles, verbose)
    return make_report(_violations(laws, frame, doc.labels, doc.field))


def structure_ok(doc: AlgebraDoc, axiom_toggles=None) -> bool:
    """check_structure's verdict without building the full report."""
    laws, frame = _laws_for(doc, axiom_toggles, False)
    return next(_violations(laws, frame, doc.labels, doc.field), None) is None


def replay_violation(doc: AlgebraDoc, violation: Violation, axiom_toggles=None):
    """Re-evaluate a witness; returns the canonical (lhs, rhs) pair."""
    require(violation, Violation, "violation")
    laws, frame = _laws_for(doc, axiom_toggles, violation.axiom == "mhl-symmetry")
    for law in laws:
        if law.axiom != violation.axiom:
            continue
        labels, basis = violation.labels, violation.basis
        if (len(labels) != len(law.labels) or not set(labels) <= set(doc.labels)
                or len(basis) != law.arity
                or not all(isinstance(i, int) and 0 <= i < doc.dim for i in basis)):
            raise ParamError(f"{violation.axiom} witnesses take {len(law.labels)} "
                             f"of the doc's labels and {law.arity} basis indices "
                             f"below {doc.dim}")
        maps, vectors = law.bind(frame, labels), frame["basis"]
        sides = law.lhs(maps, vectors, basis), law.rhs[0](maps, vectors, basis)
        red = _reducer(doc.field, frame.get("D", 1) ** law.degree)
        return tuple(tuple(map(red, side)) for side in sides)
    raise ParamError(f"axiom {violation.axiom!r} is not checked for kind {doc.kind!r}")


# --- side conditions ---------------------------------------------------------

def _roles(tag, doc):
    """The roles a map tag is checked on: doc's, or None for a tag that is
    not checked per role."""
    return KIND_ROLES[doc.kind] if _MAP_LAWS[tag][0] else (None,)


def _map_violations(tag, frame, doc, target=None, points=None):
    """Violations of a map or two-doc tag, role by role; m2 is bound to the
    second doc's maps, and m~ and m2~ to their sparse forms.  points as for
    _violations."""
    pad = "D" in frame
    for role in _roles(tag, doc):
        if role is not None:
            frame["m"], frame["m~"] = frame[role], frame[role + "~"]
            if target is not None:
                frame["m2"], frame["m2~"] = target[role], target[role + "~"]
        yield from _violations(_map_laws(tag, role, pad), frame, doc.labels, doc.field,
                               points)


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
    if candidate is not None:
        require(candidate, LinearMap, "candidate")
    require(doc, AlgebraDoc, "doc")
    p = candidate if candidate is not None else doc.twist_map()
    if p.field != doc.field:
        raise FieldMismatch("candidate map over the wrong field")
    if isinstance(p.rows, (list, tuple)) and p.dim != doc.dim:
        raise DimensionMismatch("candidate map of the wrong dimension")
    if candidate is not None:
        check_map(candidate, LinearMap, doc.field, doc.dim, "candidate")
    frame = _frame(doc, f=p.columns())

    def violations():
        for tag in conditions:
            if tag not in SIDE_CONDITIONS:
                raise UnknownConditionError(f"unknown side condition {tag!r}")
            if tag == "invertible":
                v = kernel_vector(p)
                if v is not None:
                    yield Violation("invertible", (), (), v, apply_map(p, v))
                continue
            if tag == "commutes" and doc.operators is None:
                raise ShapeError("commutes requires an operator family", "operators")
            yield from _map_violations(tag, frame, doc)
    return make_report(violations())


def check_morphism(f: LinearMap, src: AlgebraDoc, dst: AlgebraDoc) -> CheckReport:
    """Check that f carries src's structure to dst's: f(x * y) = f(x) *' f(y)
    per role and label, the structure twists intertwine (p' o f = f o p;
    a plain kind's is the identity, whatever candidate it stores), and on
    rb kinds the operators too (f o P_a = P'_a o f per label).  src and dst
    must share their field, kind, labels, weights and dimension."""
    require(f, LinearMap, "f")
    _pair(src, dst, "morphism")
    if f.field != src.field:
        raise FieldMismatch("morphism requires one common field")
    if isinstance(f.rows, (list, tuple)) and f.dim != src.dim:
        raise DimensionMismatch("morphism maps must match both carriers")
    check_map(f, LinearMap, src.field, src.dim, "morphism")
    frame, target = _frames(src, dst, f=f.columns())
    frame["p2"] = target["p"]

    def violations():
        yield from _map_violations("morphism", frame, src, target)
        yield from _map_violations("twist-intertwine", frame, src)
        if src.operators is not None:
            frame["P2"] = target["P"]
            yield from _map_violations("operator-intertwine", frame, src)
    return make_report(violations())


def first_difference(src: AlgebraDoc, dst: AlgebraDoc) -> Violation | None:
    """The first entry where src's and dst's tensors differ, in (role, label,
    i, j) order, as a diagram-{role} witness; None when they agree."""
    _pair(src, dst, "comparison")
    frame, target = _frames(src, dst)
    return next(_map_violations("diagram", frame, src, target), None)


# --- tensors filled from a side ------------------------------------------------

@lru_cache(maxsize=None)
def _filler(side, pad):
    return _compile(_law("fill", "a", side), None, pad)


def fill(side, field, dim, frame, lab=None) -> BilinearMap:
    """The tensor whose c'[i][j] is side at the basis pair (i, j), reduced;
    side reads its names from frame, as _frame binds them, or from a dict
    of unscaled maps, with the label variable a bound to lab."""
    if not isinstance(frame, _Frame):
        frame = _Frame(frame, basis=_basis(dim))
        frame["-"] = -1
        frame, = _scaled(field, frame)
    d, basis, n = frame.get("D", 1), frame["basis"], range(dim)
    law = _filler(side, d != 1)
    maps, red = law.bind(frame, (lab,)), _reducer(field, d ** law.degree)
    return BilinearMap(field, tuple(tuple(tuple(map(red, law.lhs(maps, basis, (i, j))))
                                          for j in n) for i in n))


# --- searches ----------------------------------------------------------------

def linear_system(doc: AlgebraDoc, tag: str) -> list:
    """The rows, over the entries of f taken row-major, of the linear system
    that the map law `tag` imposes on doc.  Column r * dim + s binds f to the
    matrix unit E_rs; there each failed instance's reduced lhs - rhs is its
    residual, and the instances that hold have residual 0.  A row is keyed by
    (axiom, labels, basis, coordinate).  tag is a side condition with a map
    law: endomorphism, multiplicative, commutes or centroid; any other tag,
    such as the two-doc morphism, is a ParamError.  Sound only for laws
    with one right-hand side, such as commutes; a tag with a law of several
    on doc's roles (centroid on a product that is not alternating) is
    refused."""
    frame = _frame(doc)
    if tag not in SIDE_CONDITIONS or tag not in _MAP_LAWS:
        raise ParamError(f"linear_system takes a side condition with a map law, "
                         f"not {tag!r}")
    if tag == "commutes" and doc.operators is None:
        raise ShapeError("commutes requires an operator family", "operators")
    if any(len(law.rhs) > 1 for role in _roles(tag, doc)
           for law in _map_laws(tag, role, "D" in frame)):
        raise ParamError(f"{tag} has a law with several right-hand sides on "
                         f"{doc.kind}, so it is not one linear system")
    dim, red, d = doc.dim, doc.field.reduce, frame.get("D", 1)
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
    """ok(candidate) -> bool for a search that varies one kind of map on
    doc.  Every candidate is decided on one frame, built once from doc, by
    the compiled laws and the evaluator above.

    Without a tag the operators vary.  candidate maps labels to operator
    matrices (row tuples of canonical scalars), and ok decides doc's
    structure laws with label variables over every tuple of those labels,
    taken in candidate's order; ok(candidate, mixed=True) takes only the
    tuples naming two distinct labels, the others being those of each label
    alone.  The laws without label variables name neither P nor w, so no
    candidate changes their verdict: a search decides them once, on doc.

    With the tag "endomorphism", candidate is the matrix of f, and ok
    decides f(x_i x_j) = f(x_i) f(x_j) on doc as check_side_conditions does.
    The instance at the basis pair (i, j) reads only the columns
    S_ij = {i, j} + supp(c[i][j]) of f, over every role and label.  So the
    pairs that read the same S with |S| < dim share a table from those
    columns to their verdict, filled by the evaluator at those pairs on
    first use, and the pairs that read every column are decided per
    candidate.  The tables live as long as ok does.

    doc is over F_p, whose frames bind D = 1, so candidates are bound as
    they come; a doc over Q is a NonFiniteFieldError.
    """
    laws, frame = _laws_for(doc, None, False)
    field = doc.field
    if not field.is_prime_field:
        raise NonFiniteFieldError("candidate_check requires a prime field")
    if tag is None:
        laws = [law for law in laws if law.labels]
        ops = frame["P"]

        def ok(candidate, mixed=False):
            for lab, rows in candidate.items():
                ops[lab] = tuple(zip(*rows))
            return next(_violations(laws, frame, tuple(candidate), field,
                                    mixed=mixed), None) is None
        return ok
    if tag != "endomorphism":
        raise ParamError(f"candidate_check takes no tag {tag!r}")

    def decide(points):
        return next(_map_violations(tag, frame, doc, points=points), None) is None

    tensors = [c for role in KIND_ROLES[doc.kind] for c in frame[role].values()]
    reading = {}    # the columns read -> the pairs that read them
    for i, j in _points(doc.dim, 2):
        reads = {i, j}.union(*({k for k, v in enumerate(c[i][j]) if v}
                               for c in tensors))
        reading.setdefault(tuple(sorted(reads)), []).append((i, j))
    full = reading.pop(tuple(range(doc.dim)), None)
    tables = [(itemgetter(*cols), points, {}) for cols, points in reading.items()]

    def ok(candidate):
        f = frame["f"] = tuple(zip(*candidate))
        for key, points, table in tables:
            cols = key(f)
            verdict = table.get(cols)
            if verdict is None:
                verdict = table[cols] = decide(points)
            if not verdict:
                return False
        return full is None or decide(full)
    return ok
