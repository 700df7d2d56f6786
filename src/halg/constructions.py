"""Structure-to-structure constructions, each re-validated on output.

Every function here implements a constructive theorem: validate the input's
own axioms, validate the hypothesis side conditions, transform the structure
constants, then run the full check on the output and raise TheoremCheckError
if it fails.  Output checks are never skipped; a red output check means the
input slipped past a hypothesis or the transform is wrong, and both must be
loud.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import check_morphism, check_side_conditions, check_structure
from .errors import (MissingCoefficientError, NonzeroWeightError, ParamError,
                     PowerBoundError, PreconditionFailed, TheoremCheckError)
from .linalg import (LinearMap, map_invert, map_power, postcompose,
                     precompose_left, precompose_right, tensor_combine,
                     tensor_transpose)
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


@dataclass(frozen=True)
class CoefficientFamily:
    """One scalar per Omega label, for collapsing a family to one operation."""

    coeffs: dict


def _checked_input(doc: AlgebraDoc, allowed, what: str) -> None:
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


def _structure_twist(doc: AlgebraDoc) -> LinearMap:
    """The twist the structure is checked with: id for plain kinds, always."""
    if doc.kind in PLAIN_RB_KINDS:
        return LinearMap.identity(doc.field, doc.dim)
    return doc.twist_map()


def _commuting_twist(doc: AlgebraDoc, what: str) -> LinearMap:
    """The structure twist, once it is checked to commute with every operator."""
    p = _structure_twist(doc)
    _checked_sides(doc, p, ["commutes"], what)
    return p


def _weights_zero(doc: AlgebraDoc) -> bool:
    return all(w == 0 for w in doc.operators.weights.values())


def _antisymmetrized(m):
    """(x, y) -> m(x, y) - m(y, x)."""
    field = m.field
    return tensor_combine(field, [(field.one, m), (-field.one, tensor_transpose(m))])


def yau_twist(doc: AlgebraDoc, p: LinearMap) -> AlgebraDoc:
    """Twist a plain matching Rota-Baxter structure along an endomorphism.

    Requires p to preserve the product and commute with every operator; the
    output multiplies by x *' y = p(x * y) and carries twist p.  Any candidate
    twist stored on the input is metadata and is not consulted.
    """
    _checked_input(doc, PLAIN_RB_KINDS, "yau_twist")
    _checked_sides(doc, p, ["endomorphism", "commutes"], "yau_twist")
    return _rb_output(doc, "yau_twist", RB_TWINS[doc.kind][1],
                      postcompose(doc.product(), p), p)


def untwist(doc: AlgebraDoc) -> AlgebraDoc:
    """Invert a Yau twist: compose the product with the inverse of the twist.

    Requires the twist to be multiplicative, commute with the operators, and
    be invertible.  untwist(yau_twist(d, p)) = d for canonical plain d.
    """
    _checked_input(doc, RB_KINDS, "untwist")
    p = _structure_twist(doc)
    _checked_sides(doc, p, ["multiplicative", "commutes", "invertible"], "untwist")
    return _rb_output(doc, "untwist", RB_TWINS[doc.kind][0],
                      postcompose(doc.product(), map_invert(p)), None)


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
    p = _structure_twist(doc)
    _checked_sides(doc, p, ["multiplicative", "commutes"], "derived_algebra")
    if variant == 1:
        prod_pow, twist_pow = n, n + 1
    else:
        prod_pow, twist_pow = (1 << n) - 1, 1 << n
    return _rb_output(doc, "derived_algebra", RB_TWINS[doc.kind][1],
                      postcompose(doc.product(), map_power(p, prod_pow)),
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
    new = precompose_left(doc.product(), p)
    if variant == 2:
        new = precompose_right(new, p)
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
                          _antisymmetrized(doc.product()), _structure_twist(doc))
    brackets = {lab: _antisymmetrized(m) for lab, m in doc.families["dot"].maps.items()}
    return _output(doc, "commutator", out_kind, {"bracket": brackets}, doc.twist)


def prelie_commutator(doc: AlgebraDoc) -> AlgebraDoc:
    """Antisymmetrize a matching Hom-pre-Lie family into compatible Hom-Lie."""
    _checked_input(doc, (MATCHING_HOM_PRELIE,), "prelie_commutator")
    brackets = {lab: _antisymmetrized(m) for lab, m in doc.families["star"].maps.items()}
    return _output(doc, "prelie_commutator", COMPATIBLE_HOM_LIE, {"bracket": brackets},
                   doc.twist)


def collapse_family(doc: AlgebraDoc, coeffs) -> AlgebraDoc:
    """Collapse an Omega-indexed family to one operation over {"*"}.

    Each role becomes sum_w a_w * op_w; the kind tag is kept.  Defined for
    every non-RB kind (the RB kinds carry a single product already).  Each
    coefficient is made canonical in the doc's field, so 1/2 over F_3 is 2.
    The output re-check can genuinely fail for the compatible kinds over
    characteristic 2, where the diagonal halving argument is unavailable;
    that failure is raised, not masked.
    """
    if doc.kind in RB_KINDS:
        raise PreconditionFailed("collapse_family needs an Omega-indexed family")
    _checked_input(doc, KIND_ROLES, "collapse_family")
    raw = coeffs.coeffs if isinstance(coeffs, CoefficientFamily) else dict(coeffs)
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
    families = {role: {lab: postcompose(m, p) for lab, m in fam.maps.items()}
                for role, fam in doc.families.items()}
    return _output(doc, "dendriform_twist", doc.kind, families, p)


def dendriform_sum(doc: AlgebraDoc) -> AlgebraDoc:
    """Sum the splitting roles into one compatible Hom-associative family."""
    _checked_input(doc, (MATCHING_HOM_DENDRIFORM, MATCHING_HOM_TRIDENDRIFORM),
                   "dendriform_sum")
    field = doc.field
    dots = {lab: tensor_combine(field, [(field.one, fam.maps[lab])
                                        for fam in doc.families.values()])
            for lab in doc.labels}
    return _output(doc, "dendriform_sum", COMPATIBLE_HOM_ASSOC, {"dot": dots}, doc.twist)


def dendriform_to_prelie(doc: AlgebraDoc) -> AlgebraDoc:
    """x * y = x > y - y < x, label by label, giving matching Hom-pre-Lie."""
    _checked_input(doc, (MATCHING_HOM_DENDRIFORM,), "dendriform_to_prelie")
    field = doc.field
    left, right = doc.families["left"].maps, doc.families["right"].maps
    stars = {lab: tensor_combine(field, [(field.one, right[lab]),
                                         (-field.one, tensor_transpose(left[lab]))])
             for lab in doc.labels}
    return _output(doc, "dendriform_to_prelie", MATCHING_HOM_PRELIE, {"star": stars},
                   doc.twist)


def rb_to_dendriform(doc: AlgebraDoc) -> AlgebraDoc:
    """Split a Hom-associative matching RB product into dendriform roles.

    x <_w y = x . P_w(y) + w_weight x . y  and  x >_w y = P_w(x) . y,
    requiring the twist to commute with every operator.
    """
    _checked_input(doc, ASSOC_RB_KINDS, "rb_to_dendriform")
    p = _commuting_twist(doc, "rb_to_dendriform")
    field = doc.field
    prod = doc.product()
    left, right = {}, {}
    for lab in doc.labels:
        op = doc.operators.ops[lab]
        w = doc.operators.weights[lab]
        left[lab] = tensor_combine(field, [(field.one, precompose_right(prod, op)),
                                           (w, prod)])
        right[lab] = precompose_left(prod, op)
    return _output(doc, "rb_to_dendriform", MATCHING_HOM_DENDRIFORM,
                   {"left": left, "right": right}, p)


def rb_to_tridendriform(doc: AlgebraDoc) -> AlgebraDoc:
    """Split a Hom-associative matching RB product into tridendriform roles.

    x <_w y = x . P_w(y),  x >_w y = P_w(x) . y,  x ._w y = w_weight x . y.
    """
    _checked_input(doc, ASSOC_RB_KINDS, "rb_to_tridendriform")
    p = _commuting_twist(doc, "rb_to_tridendriform")
    field = doc.field
    prod = doc.product()
    left, middle, right = {}, {}, {}
    for lab in doc.labels:
        op = doc.operators.ops[lab]
        w = doc.operators.weights[lab]
        left[lab] = precompose_right(prod, op)
        right[lab] = precompose_left(prod, op)
        middle[lab] = tensor_combine(field, [(w, prod)])
    return _output(doc, "rb_to_tridendriform", MATCHING_HOM_TRIDENDRIFORM,
                   {"left": left, "middle": middle, "right": right}, p)


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
    field = doc.field
    prod = doc.product()
    stars = {}
    for lab in doc.labels:
        op = doc.operators.ops[lab]
        stars[lab] = precompose_left(prod, op)
        if assoc:
            stars[lab] = tensor_combine(field, [
                (field.one, stars[lab]),
                (-field.one, tensor_transpose(precompose_right(prod, op))),
                (field.reduce(-doc.operators.weights[lab]), tensor_transpose(prod)),
            ])
    return _output(doc, "rb_to_prelie", MATCHING_HOM_PRELIE, {"star": stars}, p)


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

    violations = []
    for axiom, role, a, b in (("diagram-star", "star", path_a, path_b),
                              ("diagram-bracket", "bracket", bracket_a, bracket_b)):
        violations += _first_tensor_diff(axiom, a.families[role].maps,
                                         b.families[role].maps, doc.labels)
    return make_report(violations)


def _first_tensor_diff(axiom, maps_a, maps_b, labels) -> list:
    """[the axiom's Violation at the first row where maps_a and maps_b
    differ], or [] when they agree."""
    for lab in labels:
        ca, cb = maps_a[lab].c, maps_b[lab].c
        for i in range(len(ca)):
            for j in range(len(ca)):
                if ca[i][j] != cb[i][j]:
                    return [Violation(axiom, (lab,), (i, j), ca[i][j], cb[i][j])]
    return []
