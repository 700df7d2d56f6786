"""Structure-to-structure constructions, each re-validated on output.

Every function here implements a constructive theorem: validate the input's
own axioms, validate the hypothesis side conditions, transform the structure
constants, then run the full check on the output and raise TheoremCheckError
if it fails.  Output checks are never skipped; a red output check means the
input slipped past a hypothesis or the transform is wrong, and both must be
loud.

Every derived tensor is one row, a side in the law table's terms that
axioms.fill evaluates at each basis pair on the input doc's own frame, with
a construction's map bound as f: x <_a y is m(X, P.a(Y)) + w.a(m(X, Y)),
and yau_twist's product is f(m(X, Y)).  The exported tensor operations
(postcompose, the precompositions and tensor_transpose) are a row each on
their own arguments, which they check.  Preconditions and the twist rules
(powers, inverse) stay code, and collapse_family's sum over labels is
linalg.tensor_combine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import (_frame, _scaled, check_morphism, check_side_conditions,
                     check_structure, fill, first_difference)
from .errors import (MissingCoefficientError, NonzeroWeightError, ParamError,
                     PowerBoundError, PreconditionFailed, ShapeError,
                     TheoremCheckError, require)
from .fields import Field
from .linalg import (BilinearMap, LinearMap, check_map, check_operand,
                     map_invert, map_power, tensor_combine)
from .structures import (ASSOC_RB_KINDS, COMPATIBLE_HOM_ASSOC,
                         COMPATIBLE_HOM_LIE, HOM_ASSOC_MATCHING_RB,
                         KIND_ROLES, LIE_RB_KINDS, MATCHING_HOM_ASSOC,
                         MATCHING_HOM_DENDRIFORM, MATCHING_HOM_LIE,
                         MATCHING_HOM_LIE_RB, MATCHING_HOM_PRELIE,
                         MATCHING_HOM_TRIDENDRIFORM, PLAIN_ASSOC_MATCHING_RB,
                         PLAIN_LIE_MATCHING_RB, PLAIN_RB_KINDS, RB_KINDS,
                         RB_TWINS, TOTALLY_COMPATIBLE_HOM_ASSOC, AlgebraDoc,
                         Violation, make_doc, make_report)

MAX_DERIVED_LEVEL = 16


def _filled(doc: AlgebraDoc, f: LinearMap | None = None, **sides) -> dict:
    """{role: {label: sides[role] at that label}} on doc's frame, with f,
    where given, bound as the map f."""
    frame = _frame(doc, None if f is None else f.columns())
    return {role: {lab: fill(side, doc.field, doc.dim, frame, lab) for lab in doc.labels}
            for role, side in sides.items()}


def _product(doc: AlgebraDoc, side: str, f: LinearMap | None = None) -> BilinearMap:
    """side, which names no label, on doc's frame with f, where given, bound
    as the map f: the product of an rb output, filled once."""
    return fill(side, doc.field, doc.dim, _frame(doc, None if f is None else f.columns()))


def _surgery(side: str, m: BilinearMap, *f: LinearMap) -> BilinearMap:
    """side on the tensor m and on the map f where one is given: m obeys
    check_map, and f the one rule for map arguments on m's field and dim."""
    require(m, BilinearMap, "m")
    require(m.field, Field, "m.field")
    if not isinstance(m.c, (list, tuple)):
        raise ShapeError("expected an array of structure constants", "m")
    field, dim = m.field, m.dim
    check_map(m, BilinearMap, field, dim, "m")
    maps = {"m": m.c}
    for g in f:
        check_operand(g, field, dim, "f", f"map of another dim than the dim-{dim} tensor")
        maps["f"] = g.columns()
    return fill(side, field, dim, _scaled(maps, field, dim))


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


@dataclass(frozen=True)
class CoefficientFamily:
    """One scalar per Omega label, for collapsing a family to one operation."""

    coeffs: dict


def _checked_input(doc: AlgebraDoc, allowed, what: str) -> None:
    require(doc, AlgebraDoc, "doc")
    if doc.kind not in allowed:
        raise PreconditionFailed(f"{what} does not accept kind {doc.kind!r}")
    report = check_structure(doc)
    if not report.passed:
        raise PreconditionFailed(f"{what}: input fails its {doc.kind} check", report)


def _checked_sides(doc: AlgebraDoc, p: LinearMap, tags, what: str) -> None:
    report = check_side_conditions(doc, tags, candidate=p)
    if not report.passed:
        raise PreconditionFailed(f"{what}: map fails {'/'.join(tags)}", report)


def _checked_output(doc: AlgebraDoc, what: str) -> AlgebraDoc:
    report = check_structure(doc)
    if not report.passed:
        raise TheoremCheckError(f"{what}: output fails its {doc.kind} check", report)
    return doc


def _output(doc: AlgebraDoc, what: str, kind: str, families: dict,
            twist) -> AlgebraDoc:
    """The checked doc of kind with families and twist on doc's carrier."""
    return _checked_output(make_doc(doc.field, doc.dim, doc.omega, kind, families,
                                    twist=twist), what)


def _rb_output(doc: AlgebraDoc, what: str, kind: str, product, twist) -> AlgebraDoc:
    """The checked rb doc of kind with product, doc's operators and twist."""
    out = make_doc(doc.field, doc.dim, doc.omega, kind, {KIND_ROLES[kind][0]: product},
                   operators=doc.operators, twist=twist)
    return _checked_output(out, what)


def _commuting_twist(doc: AlgebraDoc, what: str) -> LinearMap:
    """The structure twist, once it is checked to commute with every operator."""
    p = doc.structure_twist()
    _checked_sides(doc, p, ["commutes"], what)
    return p


def _weights_zero(doc: AlgebraDoc) -> bool:
    return all(w == 0 for w in doc.operators.weights.values())


def yau_twist(doc: AlgebraDoc, p: LinearMap) -> AlgebraDoc:
    """Twist a plain matching Rota-Baxter structure along an endomorphism.

    Requires p to preserve the product and commute with every operator; the
    output multiplies by x *' y = p(x * y) and carries twist p.  Any candidate
    twist stored on the input is metadata and is not consulted.
    """
    _checked_input(doc, PLAIN_RB_KINDS, "yau_twist")
    _checked_sides(doc, p, ["endomorphism", "commutes"], "yau_twist")
    return _rb_output(doc, "yau_twist", RB_TWINS[doc.kind][1],
                      _product(doc, "f(m(X, Y))", p), p)


def untwist(doc: AlgebraDoc) -> AlgebraDoc:
    """Invert a Yau twist: compose the product with the inverse of the twist.

    Requires the twist to be multiplicative, commute with the operators, and
    be invertible.  untwist(yau_twist(d, p)) = d for canonical plain d.
    """
    _checked_input(doc, RB_KINDS, "untwist")
    p = doc.structure_twist()
    _checked_sides(doc, p, ["multiplicative", "commutes", "invertible"], "untwist")
    return _rb_output(doc, "untwist", RB_TWINS[doc.kind][0],
                      _product(doc, "f(m(X, Y))", map_invert(p)), None)


def derived_algebra(doc: AlgebraDoc, n: int, variant: int = 1) -> AlgebraDoc:
    """The level-n derived structure of a multiplicative matching RB doc.

    Variant 1 composes the product with p^n and twists by p^(n+1); variant 2
    uses p^(2^n - 1) and p^(2^n).  Variant 2 is undefined for Lie docs.
    """
    if variant not in (1, 2):
        raise ParamError(f"variant must be 1 or 2, got {variant!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParamError(f"level must be a non-negative integer, got {n!r}")
    if n > MAX_DERIVED_LEVEL:
        raise PowerBoundError(f"level {n} exceeds the bound {MAX_DERIVED_LEVEL}")
    _checked_input(doc, RB_KINDS, "derived_algebra")
    if variant == 2 and doc.kind in LIE_RB_KINDS:
        raise ParamError("variant 2 is undefined for Lie docs")
    p = doc.structure_twist()
    _checked_sides(doc, p, ["multiplicative", "commutes"], "derived_algebra")
    if variant == 1:
        prod_pow, twist_pow = n, n + 1
    else:
        prod_pow, twist_pow = (1 << n) - 1, 1 << n
    return _rb_output(doc, "derived_algebra", RB_TWINS[doc.kind][1],
                      _product(doc, "f(m(X, Y))", map_power(p, prod_pow)),
                      map_power(p, twist_pow))


def centroid_twist(doc: AlgebraDoc, p: LinearMap, variant: int = 1) -> AlgebraDoc:
    """Twist a plain matching RB structure along a centroid element.

    Variant 1 multiplies by p(x) * y, variant 2 by p(x) * p(y); both carry
    twist p.  Requires p in the centroid and commuting with the operators.
    """
    if variant not in (1, 2):
        raise ParamError(f"variant must be 1 or 2, got {variant!r}")
    _checked_input(doc, PLAIN_RB_KINDS, "centroid_twist")
    _checked_sides(doc, p, ["centroid", "commutes"], "centroid_twist")
    new = _product(doc, "m(f(X), Y)" if variant == 1 else "m(f(X), f(Y))", p)
    return _rb_output(doc, "centroid_twist", RB_TWINS[doc.kind][1], new, p)


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
    _checked_input(doc, _COMMUTATOR_KIND, "commutator")
    if doc.kind in RB_KINDS and len(doc.labels) > 1 and not _weights_zero(doc):
        raise PreconditionFailed(
            "commutator on a matching RB doc requires weight 0 or one label")
    out_kind = _COMMUTATOR_KIND[doc.kind]
    if doc.kind in RB_KINDS:
        return _rb_output(doc, "commutator", out_kind,
                          _product(doc, "m(X, Y) - m(Y, X)"), doc.structure_twist())
    return _output(doc, "commutator", out_kind,
                   _filled(doc, bracket="dot.a(X, Y) - dot.a(Y, X)"), doc.twist)


def prelie_commutator(doc: AlgebraDoc) -> AlgebraDoc:
    """Antisymmetrize a matching Hom-pre-Lie family into compatible Hom-Lie."""
    _checked_input(doc, (MATCHING_HOM_PRELIE,), "prelie_commutator")
    return _output(doc, "prelie_commutator", COMPATIBLE_HOM_LIE,
                   _filled(doc, bracket="star.a(X, Y) - star.a(Y, X)"), doc.twist)


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
    _checked_input(doc, KIND_ROLES, "collapse_family")
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
    out = make_doc(field, doc.dim, ("*",), doc.kind, families, twist=doc.twist)
    return _checked_output(out, "collapse_family")


def dendriform_twist(doc: AlgebraDoc, p: LinearMap) -> AlgebraDoc:
    """Twist a plain matching (tri)dendriform structure along an endomorphism.

    p must be a self-morphism of the doc (every role preserved); the output
    composes each role with p and carries twist p.
    """
    _checked_input(doc, (MATCHING_HOM_DENDRIFORM, MATCHING_HOM_TRIDENDRIFORM),
                   "dendriform_twist")
    if not doc.twist_map().is_identity():
        raise PreconditionFailed("dendriform_twist needs a plain (identity twist) input")
    report = check_morphism(p, doc, doc)
    if not report.passed:
        raise PreconditionFailed("dendriform_twist: map is not a self-morphism", report)
    families = _filled(doc, p, **{role: f"f({role}.a(X, Y))" for role in doc.families})
    return _output(doc, "dendriform_twist", doc.kind, families, p)


def dendriform_sum(doc: AlgebraDoc) -> AlgebraDoc:
    """Sum the splitting roles into one compatible Hom-associative family."""
    _checked_input(doc, (MATCHING_HOM_DENDRIFORM, MATCHING_HOM_TRIDENDRIFORM),
                   "dendriform_sum")
    dot = " + ".join(f"{role}.a(X, Y)" for role in KIND_ROLES[doc.kind])
    return _output(doc, "dendriform_sum", COMPATIBLE_HOM_ASSOC, _filled(doc, dot=dot),
                   doc.twist)


def dendriform_to_prelie(doc: AlgebraDoc) -> AlgebraDoc:
    """x * y = x > y - y < x, label by label, giving matching Hom-pre-Lie."""
    _checked_input(doc, (MATCHING_HOM_DENDRIFORM,), "dendriform_to_prelie")
    return _output(doc, "dendriform_to_prelie", MATCHING_HOM_PRELIE,
                   _filled(doc, star="right.a(X, Y) - left.a(Y, X)"), doc.twist)


def rb_to_dendriform(doc: AlgebraDoc) -> AlgebraDoc:
    """Split a Hom-associative matching RB product into dendriform roles.

    x <_w y = x . P_w(y) + w_weight x . y  and  x >_w y = P_w(x) . y,
    requiring the twist to commute with every operator.
    """
    _checked_input(doc, ASSOC_RB_KINDS, "rb_to_dendriform")
    p = _commuting_twist(doc, "rb_to_dendriform")
    return _output(doc, "rb_to_dendriform", MATCHING_HOM_DENDRIFORM,
                   _filled(doc, left="m(X, P.a(Y)) + w.a(m(X, Y))",
                           right="m(P.a(X), Y)"), p)


def rb_to_tridendriform(doc: AlgebraDoc) -> AlgebraDoc:
    """Split a Hom-associative matching RB product into tridendriform roles.

    x <_w y = x . P_w(y),  x >_w y = P_w(x) . y,  x ._w y = w_weight x . y.
    """
    _checked_input(doc, ASSOC_RB_KINDS, "rb_to_tridendriform")
    p = _commuting_twist(doc, "rb_to_tridendriform")
    return _output(doc, "rb_to_tridendriform", MATCHING_HOM_TRIDENDRIFORM,
                   _filled(doc, left="m(X, P.a(Y))", middle="w.a(m(X, Y))",
                           right="m(P.a(X), Y)"), p)


def rb_to_prelie(doc: AlgebraDoc) -> AlgebraDoc:
    """Matching Hom-pre-Lie from a matching RB doc.

    Associative route (any weight): x *_w y = P_w(x).y - y.P_w(x) - w_wt y.x.
    Lie route (weight 0 only):      x *_w y = [P_w(x), y].
    Both require the twist to commute with the operators.
    """
    assoc = doc.kind in ASSOC_RB_KINDS
    _checked_input(doc, ASSOC_RB_KINDS if assoc else LIE_RB_KINDS, "rb_to_prelie")
    if not assoc and not _weights_zero(doc):
        raise NonzeroWeightError("the Lie route to pre-Lie requires weight 0")
    p = _commuting_twist(doc, "rb_to_prelie")
    star = "m(P.a(X), Y)" + (" - m(Y, P.a(X)) - w.a(m(Y, X))" if assoc else "")
    return _output(doc, "rb_to_prelie", MATCHING_HOM_PRELIE, _filled(doc, star=star), p)


def verify_diagram(doc: AlgebraDoc):
    """Check that splitting and antisymmetrizing commute on a weight-0 RB doc.

    Path A: rb_to_dendriform then dendriform_to_prelie.
    Path B: commutator then the Lie route of rb_to_prelie.
    Passes iff both paths give the same star family entrywise and the two
    pre-Lie commutator brackets agree as well; each comparison reports its
    first differing entry.
    """
    _checked_input(doc, ASSOC_RB_KINDS, "verify_diagram")
    if not _weights_zero(doc):
        raise NonzeroWeightError("the diagram is stated for weight 0 only")
    _commuting_twist(doc, "verify_diagram")

    try:
        path_a = dendriform_to_prelie(rb_to_dendriform(doc))
        path_b = rb_to_prelie(commutator(doc))
        bracket_a = prelie_commutator(path_a)
        bracket_b = prelie_commutator(path_b)
    except TheoremCheckError as e:
        return e.report if e.report is not None else make_report(
            [Violation("diagram-intermediate", (), (), (), ())])

    diffs = first_difference(path_a, path_b), first_difference(bracket_a, bracket_b)
    return make_report(v for v in diffs if v is not None)
