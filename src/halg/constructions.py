"""Structure-to-structure constructions, each re-checked by its laws on output.

Every function here implements a constructive theorem: check the input's
own axioms, check the hypothesis side conditions, transform the structure
constants, then check the output against its laws and raise
TheoremCheckError if it fails.  Output checks are never skipped; a red
output check means the input slipped past a hypothesis or the transform is
wrong, and both must be loud.  An output is assembled from canonical parts
(_output): its tensors are filled canonical and in shape, so it is not
shape-validated (validate_doc); only a bracket filled by a row that does
not make it alternating is checked for alternation, as validate_doc checks
it.

Each construction runs one path, _construct, and states only its kinds,
preconditions, map and tags, rows and twist.  One frame of the input serves
its structure check, the side conditions on the map and `fill`, which
evaluates each row, a side in the law table's terms, at each basis pair,
with the map bound as f and a power or its inverse as g: x <_a y is
m(X, P.a(Y)) + w.a(m(X, Y)).  The exported tensor operations are a row each
on their own arguments; collapse_family sums with linalg.tensor_combine.

verify_diagram runs six constructions in a row, and each checks its input
on a frame.  Inside one verify_diagram call a doc that has passed its
structure laws, as an input or as an output, is kept with its frame
(_CHECKED), so the next construction on it reuses that frame and skips the
input check it would repeat; nothing is kept once the call returns.
"""

from __future__ import annotations

from contextvars import ContextVar

from .axioms import (_MISMATCH, _frame, _laws_for, _plan, _scaled,
                     _structure_laws, _tag_violations, _violations, fill,
                     first_difference)
# not called here: bound for the wrappers perfbench/tracing.py sets here
from .axioms import check_morphism, check_side_conditions  # noqa: F401
from .axioms import check_structure  # noqa: F401
from .errors import (Frozen, HalgError, MissingCoefficientError,
                     NonzeroWeightError, ParamError, PowerBoundError,
                     PreconditionFailed, SingularMapError, TheoremCheckError,
                     require)
from .linalg import (BilinearMap, LinearMap, _compose, _invert, _power,
                     check_operand, check_own, tensor_combine)
# not called here either: _construct checks its map once, then powers and
# inverts it unchecked
from .linalg import map_invert, map_power  # noqa: F401
from .structures import (ASSOC_RB_KINDS, COMPATIBLE_HOM_ASSOC,
                         COMPATIBLE_HOM_LIE, HOM_ASSOC_MATCHING_RB,
                         KIND_ROLES, LIE_RB_KINDS, MATCHING_HOM_ASSOC,
                         MATCHING_HOM_DENDRIFORM, MATCHING_HOM_LIE,
                         MATCHING_HOM_LIE_RB, MATCHING_HOM_PRELIE,
                         MATCHING_HOM_TRIDENDRIFORM, PLAIN_ASSOC_MATCHING_RB,
                         PLAIN_LIE_MATCHING_RB, PLAIN_RB_KINDS, RB_KINDS,
                         RB_TWINS, TOTALLY_COMPATIBLE_HOM_ASSOC, BRACKET,
                         AlgebraDoc, BilinearFamily, OmegaSet, Violation,
                         _assemble, _check_alternating, make_report)
# not called here either: bound for the tracer's make_doc wrapper
from .structures import make_doc  # noqa: F401

MAX_DERIVED_LEVEL = 16


def _surgery(side: str, m: BilinearMap, *f: LinearMap) -> BilinearMap:
    """side on the tensor m and on the map f where one is given: m obeys
    check_own, and f the one rule for map arguments on m's field and dim."""
    check_own(m, BilinearMap, "m")
    field, dim = m.field, m.dim
    maps = {"m": m.c}
    for g in f:
        check_operand(g, field, dim, "f", f"map of another dim than the dim-{dim} tensor")
        maps["f"] = g.columns()
    return fill(side, field, _scaled(maps, field, dim))


def postcompose(m: BilinearMap, f: LinearMap) -> BilinearMap:
    """(x, y) -> f(m(x, y))."""
    return _surgery("f(m(X, Y))", m, f)


def precompose_left(m: BilinearMap, f: LinearMap) -> BilinearMap:
    """(x, y) -> m(f(x), y)."""
    return _surgery("m(f(X), Y)", m, f)


def precompose_right(m: BilinearMap, f: LinearMap) -> BilinearMap:
    """(x, y) -> m(x, f(y))."""
    return _surgery("m(X, f(Y))", m, f)


def tensor_transpose(m: BilinearMap) -> BilinearMap:
    """(x, y) -> m(y, x)."""
    return _surgery("m(Y, X)", m)


class CoefficientFamily(Frozen):
    """One scalar per Omega label, for collapsing a family to one operation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        object.__setattr__(self, "coeffs", coeffs)


# the docs that passed their structure laws inside one verify_diagram
# call, by id: (doc, the frame they passed on); None outside such a call
_CHECKED: ContextVar = ContextVar("_CHECKED", default=None)


def _structure_report(doc: AlgebraDoc, frame):
    """doc's structure laws (those check_structure runs) on frame, one of
    doc; inside verify_diagram a doc that passes is kept with frame."""
    laws = _structure_laws(doc.kind, True, False)
    report = make_report(_violations(_plan(laws, frame, doc.labels, doc.field), frame))
    if report.passed and (checked := _CHECKED.get()) is not None:
        checked[id(doc)] = doc, frame
    return report


def _checked_output(doc: AlgebraDoc, what: str) -> AlgebraDoc:
    # on the frame check_structure builds, by axioms' own _frame
    report = _structure_report(doc, _laws_for(doc, None, False)[1])
    if not report.passed:
        raise TheoremCheckError(f"{what}: output fails its {doc.kind} check", report)
    return doc


# bracket rows that make the output alternating: x.y - y.x on any tensor,
# and a map applied to the input's alternating bracket or to both of its
# arguments; a bracket filled by another row (centroid_twist's variant 1)
# is checked (_output)
_ALTERNATING = frozenset({"dot.a(X, Y) - dot.a(Y, X)", "m(X, Y) - m(Y, X)",
                          "star.a(X, Y) - star.a(Y, X)", "f(m(X, Y))",
                          "g(m(X, Y))", "m(f(X), f(Y))"})


def _output(doc: AlgebraDoc, kind: str, omega: OmegaSet, families: dict,
            twist: LinearMap | None, alternating: bool) -> AlgebraDoc:
    """The output of kind on doc's field and carrier, assembled unchecked
    (structures._assemble) from families, {role: {label: tensor}} with
    tensors that fill or tensor_combine made canonical and in shape, doc's
    operators on an rb kind, and twist, its rows made tuples.  A bracket is
    checked for alternation at validate_doc's path, unless alternating says
    its row makes it so."""
    if twist is not None and tuple(map(tuple, twist.rows)) != twist.rows:
        twist = LinearMap(twist.field, tuple(map(tuple, twist.rows)))
    rb = kind in RB_KINDS
    out = _assemble(doc.field, doc.dim, omega, kind,
                    {role: BilinearFamily(role, maps) for role, maps in families.items()},
                    doc.operators if rb else None, twist)
    if BRACKET in families and not alternating:
        # an rb kind's one product sits at the role's own path, checked once
        for lab in omega.labels[:1] if rb else omega.labels:
            _check_alternating(out, families[BRACKET][lab],
                               "families.bracket" + ("" if rb else "." + lab))
    return out


def _construct(what: str, doc: AlgebraDoc, kinds, rows, p: LinearMap | None = None,
               tags=(), power: int | None = None):
    """The construction what, on one frame of doc.  kinds maps doc's kind
    to the output's, and doc must pass its structure laws.  rows, or
    rows(doc), which raises any further precondition, are the output's: an
    rb product, a side per role, or None to check the hypotheses alone.
    The map p, else doc's structure twist, is refused by check_operand only
    then, its one check, and must pass tags ("morphism": be a self-morphism
    of doc).  The frame binds p as f and p^power as g (-1: the inverse);
    the output's twist is p composed with g, p^(power + 1), or p where power
    is None.  Inside verify_diagram, a doc that passed its laws there
    (_CHECKED) is not checked again where its structure twist is the map
    and no power is read: its frame is reused, with f bound to its p."""
    require(doc, AlgebraDoc, "doc")
    if doc.kind not in kinds:
        raise PreconditionFailed(f"{what} does not accept kind {doc.kind!r}")
    path = "morphism" if "morphism" in tags else "candidate"
    checked = _CHECKED.get()
    seen = checked.get(id(doc)) if checked and p is None and power is None else None
    p, refused = doc.structure_twist() if p is None else p, None
    try:
        check_operand(p, doc.field, doc.dim, path, _MISMATCH[path])
    except HalgError as e:
        refused = e
    g = None
    if power is not None and not refused:
        try:
            g = _invert(p) if power < 0 else _power(p, power)
        except SingularMapError:
            pass  # the invertible tag refuses p before g is read
    if seen is not None:
        frame = seen[1]
        if tags and not refused:
            frame["f"] = frame["p"]    # p, scaled by the frame's D as f would be
    else:
        frame = _frame(doc, p.columns() if tags and not refused else None,
                       doc if path == "morphism" else None,
                       None if g is None else g.columns())
        report = _structure_report(doc, frame)
        if not report.passed:
            raise PreconditionFailed(f"{what}: input fails its {doc.kind} check", report)
    rows = rows(doc) if callable(rows) else rows
    if refused is not None:
        raise refused
    report = make_report(_tag_violations(tags, frame, doc, p))
    if not report.passed:
        why = "is not a self-morphism" if path == "morphism" else "fails " + "/".join(tags)
        raise PreconditionFailed(f"{what}: map {why}", report)
    if rows is None:
        return None
    kind, field = kinds[doc.kind], doc.field
    if kind in RB_KINDS:
        rows = {KIND_ROLES[kind][0]: rows}
        families = {role: dict.fromkeys(doc.labels, fill(side, field, frame))
                    for role, side in rows.items()}
    else:
        families = {role: {lab: fill(side, field, frame, lab) for lab in doc.labels}
                    for role, side in rows.items()}
    out = _output(doc, kind, doc.omega, families, p if g is None else _compose(p, g),
                  rows.get(BRACKET) in _ALTERNATING)
    return _checked_output(out, what)


def _weights_zero(doc: AlgebraDoc) -> bool:
    return all(w == 0 for w in doc.operators.weights.values())


# input kind -> output kind: the Hom twin for a twist, the plain one back
_UNTWISTED, _TWISTED = ({kind: RB_TWINS[kind][i] for kind in RB_KINDS} for i in (0, 1))
_PLAIN_TWISTED = {kind: _TWISTED[kind] for kind in PLAIN_RB_KINDS}
_DENDRIFORM = (MATCHING_HOM_DENDRIFORM, MATCHING_HOM_TRIDENDRIFORM)


def yau_twist(doc: AlgebraDoc, p: LinearMap) -> AlgebraDoc:
    """Twist a plain matching Rota-Baxter structure along an endomorphism.

    Requires p to preserve the product and commute with every operator; the
    output multiplies by x *' y = p(x * y) and carries twist p.  Any candidate
    twist stored on the input is metadata and is not consulted.
    """
    return _construct("yau_twist", doc, _PLAIN_TWISTED, "f(m(X, Y))", p,
                      ("endomorphism", "commutes"))


def untwist(doc: AlgebraDoc) -> AlgebraDoc:
    """Invert a Yau twist: compose the product with the inverse of the twist.

    Requires the twist to be multiplicative, commute with the operators, and
    be invertible.  untwist(yau_twist(d, p)) = d for canonical plain d.
    """
    # twisted by p^0, the identity, which the plain output drops
    return _construct("untwist", doc, _UNTWISTED, "g(m(X, Y))", power=-1,
                      tags=("multiplicative", "commutes", "invertible"))


def derived_algebra(doc: AlgebraDoc, n: int, variant: int = 1) -> AlgebraDoc:
    """The level-n derived structure of a multiplicative matching RB doc.

    Variant 1 composes the product with p^n and twists by p^(n+1); variant 2
    uses p^(2^n - 1) and p^(2^n).  Variant 2 is undefined for Lie docs.
    """
    if type(variant) is not int or variant not in (1, 2):
        raise ParamError(f"variant must be 1 or 2, got {variant!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParamError(f"level must be a non-negative integer, got {n!r}")
    if n > MAX_DERIVED_LEVEL:
        raise PowerBoundError(f"level {n} exceeds the bound {MAX_DERIVED_LEVEL}")

    def rows(doc):
        if variant == 2 and doc.kind in LIE_RB_KINDS:
            raise ParamError("variant 2 is undefined for Lie docs")
        return "g(m(X, Y))"
    power = n if variant == 1 else (1 << n) - 1
    return _construct("derived_algebra", doc, _TWISTED, rows,
                      tags=("multiplicative", "commutes"), power=power)


def centroid_twist(doc: AlgebraDoc, p: LinearMap, variant: int = 1) -> AlgebraDoc:
    """Twist a plain matching RB structure along a centroid element.

    Variant 1 multiplies by p(x) * y, variant 2 by p(x) * p(y); both carry
    twist p.  Requires p in the centroid and commuting with the operators.
    """
    if type(variant) is not int or variant not in (1, 2):
        raise ParamError(f"variant must be 1 or 2, got {variant!r}")
    return _construct("centroid_twist", doc, _PLAIN_TWISTED,
                      "m(f(X), Y)" if variant == 1 else "m(f(X), f(Y))", p,
                      ("centroid", "commutes"))


_COMMUTATOR_KIND = {
    MATCHING_HOM_ASSOC: COMPATIBLE_HOM_LIE,
    COMPATIBLE_HOM_ASSOC: COMPATIBLE_HOM_LIE,
    TOTALLY_COMPATIBLE_HOM_ASSOC: MATCHING_HOM_LIE,
    HOM_ASSOC_MATCHING_RB: MATCHING_HOM_LIE_RB,
    PLAIN_ASSOC_MATCHING_RB: PLAIN_LIE_MATCHING_RB,
}


def commutator(doc: AlgebraDoc) -> AlgebraDoc:
    """Antisymmetrize each product: [x, y] = x . y - y . x.

    Kind mapping: matching/compatible Hom-associative give compatible
    Hom-Lie, totally compatible gives matching Hom-Lie, and matching RB
    docs keep their operators and become matching RB Lie docs (a plain
    doc's candidate twist is dropped).  RB inputs must have weight 0 or a
    singleton label set: with mixed weights the induced bracket picks up
    w_b P_a(x.y) - w_a P_b(y.x) in place of the Lie-side w_b P_a([x,y])
    term, and the theorem genuinely fails.
    """
    def rows(doc):
        if doc.kind not in RB_KINDS:
            return {"bracket": "dot.a(X, Y) - dot.a(Y, X)"}
        if len(doc.labels) > 1 and not _weights_zero(doc):
            raise PreconditionFailed(
                "commutator on a matching RB doc requires weight 0 or one label")
        return "m(X, Y) - m(Y, X)"
    return _construct("commutator", doc, _COMMUTATOR_KIND, rows)


def prelie_commutator(doc: AlgebraDoc) -> AlgebraDoc:
    """Antisymmetrize a matching Hom-pre-Lie family into compatible Hom-Lie."""
    return _construct("prelie_commutator", doc, {MATCHING_HOM_PRELIE: COMPATIBLE_HOM_LIE},
                      {"bracket": "star.a(X, Y) - star.a(Y, X)"})


def collapse_family(doc: AlgebraDoc, coeffs) -> AlgebraDoc:
    """Collapse an Omega-indexed family to one operation over {"*"}.

    Each role becomes sum_w a_w * op_w; the kind tag is kept.  Defined for
    every non-RB kind (the RB kinds carry a single product already).  Each
    coefficient is made canonical in the doc's field, so 1/2 over F_3 is 2.
    The output re-check can genuinely fail for the compatible kinds over
    characteristic 2, where the diagonal halving argument is unavailable;
    that failure is raised, not masked.
    """
    require(doc, AlgebraDoc, "doc")
    if doc.kind in RB_KINDS:
        raise PreconditionFailed("collapse_family needs an Omega-indexed family")
    _construct("collapse_family", doc, KIND_ROLES, None)  # its hypotheses alone
    raw = coeffs.coeffs if isinstance(coeffs, CoefficientFamily) else coeffs
    if not isinstance(raw, dict):
        raise ParamError("coefficients must be a dict of label to scalar, not a "
                         + type(raw).__name__)
    missing = [lab for lab in doc.labels if lab not in raw]
    if missing:
        raise MissingCoefficientError(f"no coefficient for labels {missing}")
    extra = sorted(set(raw) - set(doc.labels))
    if extra:
        raise ParamError(f"coefficients for unknown labels {extra}")
    field = doc.field
    a = {lab: field.canonical(raw[lab], f"coeffs.{lab}") for lab in doc.labels}
    families = {role: {"*": tensor_combine(field, [(a[lab], fam.maps[lab])
                                                   for lab in doc.labels])}
                for role, fam in doc.families.items()}
    # a sum of the input's alternating brackets is alternating
    out = _output(doc, doc.kind, OmegaSet(("*",)), families, doc.twist, True)
    return _checked_output(out, "collapse_family")


def dendriform_twist(doc: AlgebraDoc, p: LinearMap) -> AlgebraDoc:
    """Twist a plain matching (tri)dendriform structure along an endomorphism.

    p must be a self-morphism of the doc (every role preserved); the output
    composes each role with p and carries twist p.
    """
    def rows(doc):
        if not doc.twist_map().is_identity():
            raise PreconditionFailed("dendriform_twist needs a plain (identity twist) input")
        return {role: f"f({role}.a(X, Y))" for role in doc.families}
    # check_morphism's laws: a dendriform doc has no operators to intertwine
    return _construct("dendriform_twist", doc, {kind: kind for kind in _DENDRIFORM}, rows,
                      p, ("morphism", "twist-intertwine"))


def dendriform_sum(doc: AlgebraDoc) -> AlgebraDoc:
    """Sum the splitting roles into one compatible Hom-associative family."""
    return _construct("dendriform_sum", doc, dict.fromkeys(_DENDRIFORM, COMPATIBLE_HOM_ASSOC),
                      lambda doc: {"dot": " + ".join(f"{role}.a(X, Y)"
                                                     for role in KIND_ROLES[doc.kind])})


def dendriform_to_prelie(doc: AlgebraDoc) -> AlgebraDoc:
    """x * y = x > y - y < x, label by label, giving matching Hom-pre-Lie."""
    return _construct("dendriform_to_prelie", doc, {MATCHING_HOM_DENDRIFORM: MATCHING_HOM_PRELIE},
                      {"star": "right.a(X, Y) - left.a(Y, X)"})


def rb_to_dendriform(doc: AlgebraDoc) -> AlgebraDoc:
    """Split a Hom-associative matching RB product into dendriform roles.

    x <_w y = x . P_w(y) + w_weight x . y  and  x >_w y = P_w(x) . y,
    requiring the twist to commute with every operator.
    """
    return _construct("rb_to_dendriform", doc,
                      dict.fromkeys(ASSOC_RB_KINDS, MATCHING_HOM_DENDRIFORM),
                      {"left": "m(X, P.a(Y)) + w.a(m(X, Y))", "right": "m(P.a(X), Y)"},
                      tags=("commutes",))


def rb_to_tridendriform(doc: AlgebraDoc) -> AlgebraDoc:
    """Split a Hom-associative matching RB product into tridendriform roles.

    x <_w y = x . P_w(y),  x >_w y = P_w(x) . y,  x ._w y = w_weight x . y.
    """
    return _construct("rb_to_tridendriform", doc,
                      dict.fromkeys(ASSOC_RB_KINDS, MATCHING_HOM_TRIDENDRIFORM),
                      {"left": "m(X, P.a(Y))", "middle": "w.a(m(X, Y))",
                       "right": "m(P.a(X), Y)"}, tags=("commutes",))


def rb_to_prelie(doc: AlgebraDoc) -> AlgebraDoc:
    """Matching Hom-pre-Lie from a matching RB doc.

    Associative route (any weight): x *_w y = P_w(x).y - y.P_w(x) - w_wt y.x.
    Lie route (weight 0 only):      x *_w y = [P_w(x), y].
    Both require the twist to commute with the operators.
    """
    def rows(doc):
        assoc = doc.kind in ASSOC_RB_KINDS
        if not assoc and not _weights_zero(doc):
            raise NonzeroWeightError("the Lie route to pre-Lie requires weight 0")
        return {"star": "m(P.a(X), Y)" + (" - m(Y, P.a(X)) - w.a(m(Y, X))" if assoc else "")}
    return _construct("rb_to_prelie", doc, dict.fromkeys(RB_KINDS, MATCHING_HOM_PRELIE),
                      rows, tags=("commutes",))


def verify_diagram(doc: AlgebraDoc):
    """Check that splitting and antisymmetrizing commute on a weight-0 RB doc.

    Path A: rb_to_dendriform then dendriform_to_prelie.
    Path B: commutator then the Lie route of rb_to_prelie.
    Passes iff both paths give the same star family entrywise and the two
    pre-Lie commutator brackets agree as well; each comparison reports its
    first differing entry.
    """
    def weight_zero(doc):
        if not _weights_zero(doc):
            raise NonzeroWeightError("the diagram is stated for weight 0 only")
    # each doc on the paths is checked once: the input here, each
    # intermediate as an output, whose frame its next step reuses
    token = _CHECKED.set({})
    try:
        _construct("verify_diagram", doc, ASSOC_RB_KINDS, weight_zero, tags=("commutes",))
        path_a = dendriform_to_prelie(rb_to_dendriform(doc))
        path_b = rb_to_prelie(commutator(doc))
        bracket_a = prelie_commutator(path_a)
        bracket_b = prelie_commutator(path_b)
    except TheoremCheckError as e:
        return e.report if e.report is not None else make_report(
            [Violation("diagram-intermediate", (), (), (), ())])
    finally:
        _CHECKED.reset(token)

    diffs = first_difference(path_a, path_b), first_difference(bracket_a, bracket_b)
    return make_report(v for v in diffs if v is not None)
