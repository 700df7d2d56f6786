"""The document model: algebra kinds, families, parsing, canonical output.

An `AlgebraDoc` packages a finite-dimensional carrier over an exact field,
an ordered label set Omega, one bilinear family per role the kind requires,
an optional Omega-indexed operator family with weights, and an optional
twist map.  Docs are immutable.  :func:`validate_doc` decides every shape rule,
entries included, and every constructor path runs it: :func:`make_doc`
directly, and :func:`parse_doc`, which only reads the JSON into scalars and
leaves the shape to make_doc.  :func:`swap_part` checks the one part it
replaces in a validated doc, so a doc in hand is always well-formed.

Representation notes, fixed here once for the whole package:

* rb kinds (the four ``*-matching-rb`` tags) carry a single product.  The
  JSON stores that one tensor directly under the role key; in memory it is
  expanded to one `BilinearMap` per label so evaluation code indexes families
  uniformly.
* Plain rb kinds normally carry no twist (identity is implied, and an
  explicit identity is normalized away).  A non-identity twist on a plain
  doc is allowed and means "designated candidate map": structure checks
  ignore it, side-condition checks test it, and search emits found maps
  through it.
* Serialization is canonical to the byte: UTF-8, compact separators, fixed
  key order, scalars as ints or ``"num/den"`` strings.  One doc is one line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DocSyntaxError, ParamError, ShapeError
from .fields import Field, field_from_jsonable, field_to_jsonable
from .linalg import BilinearMap, LinearMap

MATCHING_HOM_ASSOC = "matching-hom-assoc"
TOTALLY_COMPATIBLE_HOM_ASSOC = "totally-compatible-hom-assoc"
COMPATIBLE_HOM_ASSOC = "compatible-hom-assoc"
MATCHING_HOM_LIE = "matching-hom-lie"
COMPATIBLE_HOM_LIE = "compatible-hom-lie"
MATCHING_HOM_PRELIE = "matching-hom-prelie"
MATCHING_HOM_DENDRIFORM = "matching-hom-dendriform"
MATCHING_HOM_TRIDENDRIFORM = "matching-hom-tridendriform"
HOM_ASSOC_MATCHING_RB = "hom-assoc-matching-rb"
MATCHING_HOM_LIE_RB = "matching-hom-lie-rb"
PLAIN_ASSOC_MATCHING_RB = "plain-assoc-matching-rb"
PLAIN_LIE_MATCHING_RB = "plain-lie-matching-rb"

DOT = "dot"
BRACKET = "bracket"
STAR = "star"
LEFT = "left"
MIDDLE = "middle"
RIGHT = "right"

ROLE_ORDER = (DOT, BRACKET, STAR, LEFT, MIDDLE, RIGHT)

KIND_ROLES = {
    MATCHING_HOM_ASSOC: (DOT,),
    TOTALLY_COMPATIBLE_HOM_ASSOC: (DOT,),
    COMPATIBLE_HOM_ASSOC: (DOT,),
    MATCHING_HOM_LIE: (BRACKET,),
    COMPATIBLE_HOM_LIE: (BRACKET,),
    MATCHING_HOM_PRELIE: (STAR,),
    MATCHING_HOM_DENDRIFORM: (LEFT, RIGHT),
    MATCHING_HOM_TRIDENDRIFORM: (LEFT, MIDDLE, RIGHT),
    HOM_ASSOC_MATCHING_RB: (DOT,),
    MATCHING_HOM_LIE_RB: (BRACKET,),
    PLAIN_ASSOC_MATCHING_RB: (DOT,),
    PLAIN_LIE_MATCHING_RB: (BRACKET,),
}

KINDS = tuple(KIND_ROLES)

RB_KINDS = frozenset({HOM_ASSOC_MATCHING_RB, MATCHING_HOM_LIE_RB,
                      PLAIN_ASSOC_MATCHING_RB, PLAIN_LIE_MATCHING_RB})
PLAIN_RB_KINDS = frozenset({PLAIN_ASSOC_MATCHING_RB, PLAIN_LIE_MATCHING_RB})
ASSOC_RB_KINDS = frozenset({HOM_ASSOC_MATCHING_RB, PLAIN_ASSOC_MATCHING_RB})
LIE_RB_KINDS = frozenset({MATCHING_HOM_LIE_RB, PLAIN_LIE_MATCHING_RB})
ASSOC_KINDS = frozenset({MATCHING_HOM_ASSOC, TOTALLY_COMPATIBLE_HOM_ASSOC,
                         COMPATIBLE_HOM_ASSOC})
LIE_KINDS = frozenset({MATCHING_HOM_LIE, COMPATIBLE_HOM_LIE})
# (plain, Hom) rb kinds on the one product of each rb kind and of the
# matching kind with that product: a Yau twist leads from the first to the
# second, an untwist back
RB_TWINS = {
    **dict.fromkeys((MATCHING_HOM_ASSOC, *ASSOC_RB_KINDS),
                    (PLAIN_ASSOC_MATCHING_RB, HOM_ASSOC_MATCHING_RB)),
    **dict.fromkeys((MATCHING_HOM_LIE, *LIE_RB_KINDS),
                    (PLAIN_LIE_MATCHING_RB, MATCHING_HOM_LIE_RB)),
}

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class OmegaSet:
    """Ordered, duplicate-free set of non-empty string labels."""

    labels: tuple

    def __post_init__(self):
        if not isinstance(self.labels, tuple) or not self.labels:
            raise ShapeError("label set must be a non-empty tuple", "omega")
        for i, lab in enumerate(self.labels):
            if not isinstance(lab, str) or not lab:
                raise ShapeError(f"label {i} must be a non-empty string", "omega")
        if len(set(self.labels)) != len(self.labels):
            raise ShapeError("labels must be distinct", "omega")

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class BilinearFamily:
    """One bilinear map per Omega label, all of one role and one shape."""

    role: str
    maps: dict


@dataclass(frozen=True)
class OperatorFamily:
    """One linear operator and one weight scalar per Omega label."""

    ops: dict
    weights: dict


@dataclass(frozen=True)
class AlgebraDoc:
    field: Field
    dim: int
    omega: OmegaSet
    kind: str
    families: dict
    operators: OperatorFamily | None = None
    twist: LinearMap | None = None

    @property
    def labels(self) -> tuple:
        return self.omega.labels

    def product(self) -> BilinearMap:
        """The single product of an rb-kind doc."""
        if self.kind not in RB_KINDS:
            raise ShapeError(f"{self.kind} has no single product", "kind")
        role = KIND_ROLES[self.kind][0]
        return self.families[role].maps[self.labels[0]]

    def twist_map(self) -> LinearMap:
        """The stored twist, or the identity when none is stored."""
        if self.twist is not None:
            return self.twist
        return LinearMap.identity(self.field, self.dim)


def make_doc(field: Field, dim: int, omega, kind: str, families: dict,
             operators: OperatorFamily | None = None,
             twist: LinearMap | None = None) -> AlgebraDoc:
    """Assemble and validate a doc.

    `omega` may be an OmegaSet or a sequence of labels.  For rb kinds,
    `families` may map the role to a single BilinearMap, which is expanded
    to every label.  An identity twist on a plain rb kind is dropped.
    """
    if not isinstance(omega, OmegaSet):
        omega = OmegaSet(tuple(omega))
    fams = {}
    for role, val in families.items():
        if isinstance(val, BilinearFamily):
            fams[role] = val
        elif isinstance(val, BilinearMap):
            fams[role] = BilinearFamily(role, {lab: val for lab in omega.labels})
        else:
            fams[role] = BilinearFamily(role, dict(val))
    doc = AlgebraDoc(field, dim, omega, kind, fams, operators,
                     _stored_twist(kind, dim, twist))
    validate_doc(doc)
    return doc


def _stored_twist(kind: str, dim, twist):
    """twist as a doc of kind stores it: None for a dim x dim identity on a
    plain rb kind.  A twist of any other shape is left to validate_doc."""
    if (kind in PLAIN_RB_KINDS and twist is not None and twist.is_identity()
            and twist.dim == dim and all(len(row) == dim for row in twist.rows)):
        return None
    return twist


def swap_part(doc: AlgebraDoc, twist: LinearMap | None = None,
              operators: OperatorFamily | None = None) -> AlgebraDoc:
    """doc, already validated, with its twist or its operator family (give
    exactly one) replaced.

    Only the new part is checked, after make_doc's dropping of an identity
    twist on a plain rb kind, and the result shares doc's families; a
    search emits its hits this way, each from one validated base.
    """
    if (twist is None) == (operators is None):
        raise ParamError("swap exactly one of twist and operators")
    if operators is not None:
        new = AlgebraDoc(doc.field, doc.dim, doc.omega, doc.kind, doc.families,
                         operators, doc.twist)
        _check_operators(new)
        return new
    twist = _stored_twist(doc.kind, doc.dim, twist)
    new = AlgebraDoc(doc.field, doc.dim, doc.omega, doc.kind, doc.families,
                     doc.operators, twist)
    if twist is not None:
        _check_twist(new)
    return new


def validate_doc(doc: AlgebraDoc) -> None:
    """Raise ShapeError (with a path) on any violated shape invariant."""
    if not isinstance(doc.dim, int) or isinstance(doc.dim, bool) or doc.dim < 1:
        raise ShapeError("dim must be a positive integer", "dim")
    if doc.kind not in KIND_ROLES:
        raise ShapeError(f"unknown kind {doc.kind!r}", "kind")
    labels = doc.omega.labels
    required = KIND_ROLES[doc.kind]

    present = set(doc.families)
    if present != set(required):
        missing = sorted(set(required) - present)
        extra = sorted(present - set(required))
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        raise ShapeError(f"{doc.kind} requires roles {list(required)} ({'; '.join(detail)})",
                         "families")

    for role in required:
        fam = doc.families[role]
        path = f"families.{role}"
        if not isinstance(fam, BilinearFamily) or fam.role != role:
            raise ShapeError("family role tag does not match its key", path)
        if set(fam.maps) != set(labels):
            raise ShapeError("family must define exactly one map per label", path)
        checked = set()
        for lab in labels:
            m = fam.maps[lab]
            if not isinstance(m, BilinearMap):
                raise ShapeError("family entries must be bilinear maps", f"{path}.{lab}")
            if m.field != doc.field:
                raise ShapeError("family map over the wrong field", f"{path}.{lab}")
            # an rb kind's one product sits at the role's own path, as in its
            # JSON; a product shared by several labels is checked once
            at = path if doc.kind in RB_KINDS else f"{path}.{lab}"
            if m.dim != doc.dim:
                raise ShapeError(
                    f"family map has dim {m.dim}, doc has dim {doc.dim}", at)
            if id(m) not in checked:
                checked.add(id(m))
                for i, plane in enumerate(m.c):
                    _check_entries(doc, plane, f"{at}[{i}]")
        if role == BRACKET:
            _check_alternating(doc, fam, path)

    if doc.kind in RB_KINDS:
        role = required[0]
        maps = doc.families[role].maps
        first = maps[labels[0]]
        for lab in labels[1:]:
            if maps[lab] != first:
                raise ShapeError("rb kinds carry a single product; labels disagree",
                                 f"families.{role}.{lab}")
        if doc.operators is None:
            raise ShapeError("rb kinds require an operator family", "operators")
        _check_operators(doc)
    elif doc.operators is not None:
        raise ShapeError(f"{doc.kind} carries no operator family", "operators")

    if doc.kind in PLAIN_RB_KINDS:
        if doc.twist is not None:
            _check_twist(doc)
            if doc.twist.is_identity():
                raise ShapeError("identity twist on a plain kind must be omitted", "twist")
    else:
        if doc.twist is None:
            raise ShapeError(f"{doc.kind} requires a twist map", "twist")
        _check_twist(doc)


def _check_twist(doc: AlgebraDoc):
    t = doc.twist
    if not isinstance(t, LinearMap):
        raise ShapeError("twist must be a linear map", "twist")
    if t.field != doc.field:
        raise ShapeError("twist over the wrong field", "twist")
    if t.dim != doc.dim:
        raise ShapeError(f"twist has dim {t.dim}, doc has dim {doc.dim}", "twist")
    _check_entries(doc, t.rows, "twist")


def _noncanonical(values, p):
    """The index of the first of values that is not a canonical scalar of
    the field of characteristic p (None for Q), or None.  Over F_p an int in
    [0, p) is canonical, over Q an int or a Fraction whose denominator is
    not 1."""
    for j, v in enumerate(values):
        if not (type(v) is int and (p is None or 0 <= v < p)
                or p is None and type(v) is Fraction and v.denominator != 1):
            return j
    return None


def _check_entries(doc: AlgebraDoc, rows, path: str):
    """ShapeError at the first entry of the dim x dim matrix rows that is not
    a canonical scalar of doc's field."""
    n, p = doc.dim, doc.field.p
    if len(rows) != n:
        raise ShapeError(f"expected {n} rows, got {len(rows)}", path)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ShapeError(f"expected {n} entries, got {len(row)}", f"{path}[{i}]")
        j = _noncanonical(row, p)
        if j is not None:
            raise ShapeError(f"entry {row[j]!r} is not a canonical scalar",
                             f"{path}[{i}][{j}]")


def _check_operators(doc: AlgebraDoc):
    ops = doc.operators
    if not isinstance(ops, OperatorFamily):
        raise ShapeError("operators must be an operator family", "operators")
    labels = doc.omega.labels
    if set(ops.ops) != set(labels):
        raise ShapeError("exactly one operator per label required", "operators.ops")
    if set(ops.weights) != set(labels):
        raise ShapeError("exactly one weight per label required", "operators.weights")
    for lab in labels:
        m = ops.ops[lab]
        if not isinstance(m, LinearMap):
            raise ShapeError("operator entries must be linear maps", f"operators.ops.{lab}")
        if m.field != doc.field or m.dim != doc.dim:
            raise ShapeError("operator of the wrong field or dimension",
                             f"operators.ops.{lab}")
        _check_entries(doc, m.rows, f"operators.ops.{lab}")
        w = ops.weights[lab]
        if _noncanonical((w,), doc.field.p) is not None:
            raise ShapeError(f"weight {w!r} is not a canonical scalar",
                             f"operators.weights.{lab}")


def _check_alternating(doc: AlgebraDoc, fam: BilinearFamily, path: str):
    # [x, x] = 0 at basis level plus full antisymmetry; both are shape
    # invariants here, so axiom checks may assume them.
    red = doc.field.reduce
    n = doc.dim
    for lab, m in fam.maps.items():
        c = m.c
        for i in range(n):
            if any(v != 0 for v in c[i][i]):
                raise ShapeError(f"bracket is not alternating at ({i},{i})", f"{path}.{lab}")
            for j in range(i + 1, n):
                for k in range(n):
                    if red(c[i][j][k] + c[j][i][k]) != 0:
                        raise ShapeError(
                            f"bracket is not antisymmetric at ({i},{j},{k})",
                            f"{path}.{lab}")


# --- canonical JSON ---------------------------------------------------------

def _tensor_jsonable(field: Field, m: BilinearMap):
    return [[[field.format_scalar(v) for v in row] for row in plane] for plane in m.c]


def _matrix_jsonable(field: Field, f: LinearMap):
    return [[field.format_scalar(v) for v in row] for row in f.rows]


def doc_to_jsonable(doc: AlgebraDoc) -> dict:
    field = doc.field
    obj = {
        "format-version": FORMAT_VERSION,
        "kind": doc.kind,
        "field": field_to_jsonable(field),
        "dim": doc.dim,
        "omega": list(doc.labels),
    }
    fams = {}
    for role in ROLE_ORDER:
        if role not in doc.families:
            continue
        if doc.kind in RB_KINDS:
            fams[role] = _tensor_jsonable(field, doc.product())
        else:
            maps = doc.families[role].maps
            fams[role] = {lab: _tensor_jsonable(field, maps[lab]) for lab in doc.labels}
    obj["families"] = fams
    if doc.operators is not None:
        obj["operators"] = {
            "ops": {lab: _matrix_jsonable(field, doc.operators.ops[lab])
                    for lab in doc.labels},
            "weights": {lab: field.format_scalar(doc.operators.weights[lab])
                        for lab in doc.labels},
        }
    if doc.twist is not None:
        obj["twist"] = _matrix_jsonable(field, doc.twist)
    return obj


def serialize_doc(doc: AlgebraDoc) -> bytes:
    """Canonical bytes: one line of compact UTF-8 JSON, stable keys and order."""
    return json.dumps(doc_to_jsonable(doc), separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _walk_scalars(field: Field, raw, depth: int, path: str):
    """raw read as arrays nested depth deep, as tuples of parsed scalars;
    their lengths are left to validate_doc."""
    if depth == 0:
        return field.parse_scalar(raw, path)
    if not isinstance(raw, list):
        raise ShapeError("expected a JSON array", path)
    return tuple(_walk_scalars(field, v, depth - 1, f"{path}[{i}]")
                 for i, v in enumerate(raw))


def _object(raw, message: str, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ShapeError(message, path)
    return raw


def parse_doc(data) -> AlgebraDoc:
    """Parse UTF-8 JSON bytes/text into a validated doc.

    Parsing reads the JSON: it refuses only what it cannot walk, and
    make_doc's validate_doc decides the shape (roles, labels, dimensions).
    Non-canonical but well-formed input (unreduced residues, "2/4", explicit
    identity twist on a plain kind) is accepted and normalized, so one
    round-trip always lands on canonical bytes.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DocSyntaxError(f"not UTF-8: {e}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise DocSyntaxError(f"not JSON: {e}") from None
    except RecursionError:
        raise DocSyntaxError("not JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DocSyntaxError("document must be a JSON object")

    allowed = {"format-version", "kind", "field", "dim", "omega", "families",
               "operators", "twist"}
    extra = set(obj) - allowed
    if extra:
        raise ShapeError(f"unexpected keys {sorted(extra)}", "document")
    if obj.get("format-version") != FORMAT_VERSION:
        raise ShapeError(f"format-version must be {FORMAT_VERSION!r}", "format-version")

    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in KIND_ROLES:
        raise ShapeError(f"unknown kind {kind!r}", "kind")
    field = field_from_jsonable(obj.get("field"))
    omega = obj.get("omega")
    if not isinstance(omega, list):
        raise ShapeError("omega must be an array of labels", "omega")

    families = {}
    for role, raw in _object(obj.get("families"), "families must be an object",
                             "families").items():
        path = f"families.{role}"
        if kind in RB_KINDS:
            families[role] = BilinearMap(field, _walk_scalars(field, raw, 3, path))
        else:
            families[role] = {
                lab: BilinearMap(field, _walk_scalars(field, t, 3, f"{path}.{lab}"))
                for lab, t in _object(raw, "family must map labels to tensors",
                                      path).items()}

    operators = None
    if "operators" in obj:
        raw = obj["operators"]
        if not isinstance(raw, dict) or set(raw) != {"ops", "weights"}:
            raise ShapeError("operators must be an object with ops and weights",
                             "operators")
        ops = _object(raw["ops"], "ops must map labels to matrices", "operators.ops")
        weights = _object(raw["weights"], "weights must map labels to scalars",
                          "operators.weights")
        operators = OperatorFamily(
            ops={lab: LinearMap(field, _walk_scalars(field, m, 2, f"operators.ops.{lab}"))
                 for lab, m in ops.items()},
            weights={lab: field.parse_scalar(w, f"operators.weights.{lab}")
                     for lab, w in weights.items()})

    twist = None
    if "twist" in obj:
        twist = LinearMap(field, _walk_scalars(field, obj["twist"], 2, "twist"))
    return make_doc(field, obj.get("dim"), omega, kind, families, operators, twist)


# --- check reports ----------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed identity instance, replayable from its coordinates."""

    axiom: str
    labels: tuple
    basis: tuple
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    violations: tuple = ()

    def __post_init__(self):
        if self.verdict not in ("pass", "fail"):
            raise ShapeError("verdict must be pass or fail", "report")
        if (self.verdict == "pass") != (not self.violations):
            raise ShapeError("verdict must agree with the violation list", "report")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def make_report(violations) -> CheckReport:
    vs = tuple(violations)
    return CheckReport("pass" if not vs else "fail", vs)


def report_to_jsonable(report: CheckReport, field: Field) -> dict:
    return {
        "verdict": report.verdict,
        "violations": [
            {
                "axiom-id": v.axiom,
                "omega-indices": list(v.labels),
                "basis-indices": list(v.basis),
                "lhs": [field.format_scalar(x) for x in v.lhs],
                "rhs": [field.format_scalar(x) for x in v.rhs],
            }
            for v in report.violations
        ],
    }
