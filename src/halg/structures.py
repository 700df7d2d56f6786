"""The document model: algebra kinds, families, parsing, canonical output.

An `AlgebraDoc` packages a finite-dimensional carrier over an exact field,
an ordered label set Omega, one bilinear family per role the kind requires,
an optional Omega-indexed operator family with weights, and an optional
twist map.  Docs are immutable.  :func:`validate_doc` decides every shape rule,
entries included, and `AlgebraDoc` runs it itself on every doc it makes, so
a doc in hand is always well-formed: :func:`make_doc` assembles one, and
:func:`parse_doc` only reads the JSON into scalars (`linalg.read_array`)
and leaves the shape to make_doc.  `_assemble` makes a doc without
__init__ and so without any check, for a caller whose parts are canonical
by construction: :func:`with_part` replaces one part of a validated doc
with it, as a search's hits are made, and halg.constructions assembles its
outputs with it.
Every family map, operator and twist is checked by the one map rule,
`linalg.check_map`: the right type over the doc's field, dim entries at
every level, each a canonical scalar.

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
import sys
from fractions import Fraction

from .errors import DocSyntaxError, Frozen, ParamError, ShapeError, require
from .fields import Field, field_from_jsonable, field_to_jsonable
from .linalg import BilinearMap, LinearMap, _basis, check_map, read_array

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


class OmegaSet(Frozen):
    """Ordered, duplicate-free set of non-empty string labels."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple):
        object.__setattr__(self, "labels", labels)
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


class BilinearFamily(Frozen):
    """One bilinear map per Omega label, all of one role and one shape."""

    __slots__ = ("role", "maps")

    def __init__(self, role: str, maps: dict):
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "maps", maps)


class OperatorFamily(Frozen):
    """One linear operator and one weight scalar per Omega label."""

    __slots__ = ("ops", "weights")

    def __init__(self, ops: dict, weights: dict):
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "weights", weights)


class AlgebraDoc(Frozen):
    __slots__ = ("field", "dim", "omega", "kind", "families", "operators", "twist")

    def __init__(self, field: Field, dim: int, omega: OmegaSet, kind: str,
                 families: dict, operators: OperatorFamily | None = None,
                 twist: LinearMap | None = None):
        put = object.__setattr__
        put(self, "field", field)
        put(self, "dim", dim)
        put(self, "omega", omega)
        put(self, "kind", kind)
        put(self, "families", families)
        put(self, "operators", operators)
        put(self, "twist", twist)
        validate_doc(self)

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
        return self.twist or LinearMap(self.field, _basis(self.dim))

    def structure_twist(self) -> LinearMap:
        """The twist the structure is checked with: the identity on a plain
        rb kind, whatever candidate its twist slot holds, else twist_map()."""
        if self.kind in PLAIN_RB_KINDS:
            return LinearMap(self.field, _basis(self.dim))
        return self.twist_map()


def make_doc(field: Field, dim: int, omega, kind: str, families: dict,
             operators: OperatorFamily | None = None,
             twist: LinearMap | None = None) -> AlgebraDoc:
    """Assemble and validate a doc.

    `omega` may be an OmegaSet or a list or tuple of labels.  For rb kinds,
    `families` may map the role to a single BilinearMap, which is expanded
    to every label.  An identity twist on a plain rb kind is dropped.
    """
    if not isinstance(omega, OmegaSet):
        omega = OmegaSet(tuple(omega) if isinstance(omega, list) else omega)
    if not isinstance(families, dict):
        raise ShapeError("families must be a dict of roles", "families")
    fams = {}
    for role, val in families.items():
        if isinstance(val, BilinearFamily):
            fams[role] = val
        elif isinstance(val, BilinearMap):
            fams[role] = BilinearFamily(role, {lab: val for lab in omega.labels})
        elif isinstance(val, dict):
            fams[role] = BilinearFamily(role, dict(val))
        else:
            raise ShapeError("a family is a bilinear map or a dict of label to one",
                             f"families.{role}")
    # a plain kind's twist is optional, a candidate map: it is checked and
    # set last, and an identity is dropped
    plain = isinstance(kind, str) and kind in PLAIN_RB_KINDS
    doc = AlgebraDoc(field, dim, omega, kind, fams, operators,
                     None if plain else twist)
    if not plain or twist is None:
        return doc
    check_map(twist, LinearMap, field, dim, "twist")
    return doc if twist.is_identity() else with_part(doc, twist=twist)


def with_part(doc: AlgebraDoc, twist: LinearMap | None = None,
              operators: OperatorFamily | None = None) -> AlgebraDoc:
    """doc, already validated, with its twist or, when operators is given,
    its operator family replaced by a part that the caller vouches for:
    nothing is checked.  The result shares doc's families, and a twist whose
    rows are the identity's row tuples is dropped on a plain rb kind.  A
    search emits its hits this way, each from one validated base."""
    if operators is None:
        operators = doc.operators
    else:
        twist = doc.twist
    return _assemble(doc.field, doc.dim, doc.omega, doc.kind, doc.families,
                     operators, twist)


def _assemble(field: Field, dim: int, omega: OmegaSet, kind: str, families: dict,
              operators: OperatorFamily | None, twist: LinearMap | None) -> AlgebraDoc:
    """The doc of these parts, made without __init__, which would validate
    it: the one unchecked path, for a caller whose parts are canonical by
    construction (with_part, and the outputs of halg.constructions).  Only
    a twist whose rows are the identity's row tuples is dropped on a plain
    rb kind, as make_doc drops an identity twist."""
    if twist is not None and kind in PLAIN_RB_KINDS and twist.rows == _basis(dim):
        twist = None
    # one call per part, as __init__ sets them, into the doc's slots: a doc
    # has no __dict__ to copy
    out, put = object.__new__(AlgebraDoc), object.__setattr__
    put(out, "field", field)
    put(out, "dim", dim)
    put(out, "omega", omega)
    put(out, "kind", kind)
    put(out, "families", families)
    put(out, "operators", operators)
    put(out, "twist", twist)
    return out


def validate_doc(doc: AlgebraDoc) -> None:
    """Raise ShapeError (with a path) on any violated shape invariant."""
    require(doc, AlgebraDoc, "doc")
    if not isinstance(doc.field, Field):
        raise ShapeError(f"expected a Field, got {type(doc.field).__name__}", "field")
    if not isinstance(doc.dim, int) or isinstance(doc.dim, bool) or doc.dim < 1:
        raise ShapeError("dim must be a positive integer", "dim")
    if not isinstance(doc.kind, str) or doc.kind not in KIND_ROLES:
        raise ShapeError(f"unknown kind {doc.kind!r}", "kind")
    if not isinstance(doc.omega, OmegaSet):
        raise ShapeError(f"expected an OmegaSet, got {type(doc.omega).__name__}",
                         "omega")
    labels = doc.omega.labels
    required = KIND_ROLES[doc.kind]

    if not isinstance(doc.families, dict):
        raise ShapeError("families must be a dict of roles", "families")
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
        if not isinstance(fam.maps, dict) or set(fam.maps) != set(labels):
            raise ShapeError("family must define exactly one map per label", path)
        checked = set()
        for lab in labels:
            m = fam.maps[lab]
            # an rb kind's one product sits at the role's own path, as in its
            # JSON; a product shared by several labels is checked once
            at = path if doc.kind in RB_KINDS else f"{path}.{lab}"
            if id(m) not in checked:
                checked.add(id(m))
                check_map(m, BilinearMap, doc.field, doc.dim, at)
                if role == BRACKET:
                    _check_alternating(doc, m, at)

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

    if doc.twist is not None:
        check_map(doc.twist, LinearMap, doc.field, doc.dim, "twist")
        if doc.kind in PLAIN_RB_KINDS and doc.twist.is_identity():
            raise ShapeError("identity twist on a plain kind must be omitted", "twist")
    elif doc.kind not in PLAIN_RB_KINDS:
        raise ShapeError(f"{doc.kind} requires a twist map", "twist")


def _check_operators(doc: AlgebraDoc):
    ops = doc.operators
    if not isinstance(ops, OperatorFamily):
        raise ShapeError("operators must be an operator family", "operators")
    labels = doc.omega.labels
    if not isinstance(ops.ops, dict) or set(ops.ops) != set(labels):
        raise ShapeError("exactly one operator per label required", "operators.ops")
    if not isinstance(ops.weights, dict) or set(ops.weights) != set(labels):
        raise ShapeError("exactly one weight per label required", "operators.weights")
    for lab in labels:
        check_map(ops.ops[lab], LinearMap, doc.field, doc.dim, f"operators.ops.{lab}")
        w = ops.weights[lab]
        if doc.field.first_noncanonical((w,)) is not None:
            raise ShapeError(f"weight {w!r} is not a canonical scalar",
                             f"operators.weights.{lab}")


def _check_alternating(doc: AlgebraDoc, m: BilinearMap, path: str):
    # [x, x] = 0 at basis level plus full antisymmetry; both are shape
    # invariants here, so axiom checks may assume them.
    red = doc.field.reduce
    n = doc.dim
    c = m.c
    for i in range(n):
        if any(v != 0 for v in c[i][i]):
            raise ShapeError(f"bracket is not alternating at ({i},{i})", path)
        for j in range(i + 1, n):
            for k in range(n):
                if red(c[i][j][k] + c[j][i][k]) != 0:
                    raise ShapeError(
                        f"bracket is not antisymmetric at ({i},{j},{k})", path)


# --- canonical JSON ---------------------------------------------------------

def _tensor_jsonable(spell, m: BilinearMap):
    return [[[spell(v) for v in row] for row in plane] for plane in m.c]


def _matrix_jsonable(spell, f: LinearMap):
    return [[spell(v) for v in row] for row in f.rows]


def _as_is(v):
    return v


def _spelled(jsonable, field: Field):
    """The object jsonable(spell) builds, of dicts and lists with every
    scalar spelled by spell, with field's spelling (Field.format_scalar).
    A scalar that has none is a ShapeError at its path."""
    try:
        return jsonable(field.format_scalar)
    except ValueError:
        raise _unspellable(jsonable(_as_is), field, "") from None


def _unspellable(obj, field: Field, path: str):
    """The ShapeError at the first scalar in obj, at path, that has no
    spelling, or None."""
    if isinstance(obj, dict):
        parts = ((f"{path}.{key}" if path else key, v) for key, v in obj.items())
    elif isinstance(obj, list):
        parts = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    elif isinstance(obj, (int, Fraction)):
        try:
            field.format_scalar(obj)
        except ValueError:
            return ShapeError("scalar has more digits than Python's int-to-string "
                              f"limit of {sys.get_int_max_str_digits()}", path)
        return None
    else:
        return None
    return next(filter(None, (_unspellable(v, field, at) for at, v in parts)), None)


def doc_to_jsonable(doc: AlgebraDoc) -> dict:
    """doc as the JSON object serialize_doc writes; a scalar with more
    digits than Python's int-to-string limit is a ShapeError at its path."""
    require(doc, AlgebraDoc, "doc")
    return _spelled(lambda spell: _doc_object(doc, spell), doc.field)


def _doc_object(doc: AlgebraDoc, spell) -> dict:
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
            fams[role] = _tensor_jsonable(spell, doc.product())
        else:
            maps = doc.families[role].maps
            fams[role] = {lab: _tensor_jsonable(spell, maps[lab]) for lab in doc.labels}
    obj["families"] = fams
    if doc.operators is not None:
        obj["operators"] = {
            "ops": {lab: _matrix_jsonable(spell, doc.operators.ops[lab])
                    for lab in doc.labels},
            "weights": {lab: spell(doc.operators.weights[lab]) for lab in doc.labels},
        }
    if doc.twist is not None:
        obj["twist"] = _matrix_jsonable(spell, doc.twist)
    return obj


def serialize_doc(doc: AlgebraDoc) -> bytes:
    """Canonical bytes: one line of compact UTF-8 JSON, stable keys and order."""
    return json.dumps(doc_to_jsonable(doc), separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


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
    if not isinstance(data, (str, bytes, bytearray)):
        raise ParamError(f"parse_doc reads str or bytes, not {type(data).__name__}")
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DocSyntaxError(f"not UTF-8: {e}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise DocSyntaxError(f"not JSON: {e}") from None
    except ValueError:
        # json reads no integer literal longer than sys.get_int_max_str_digits()
        raise DocSyntaxError("not JSON: an integer literal is too long") from None
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
    read = field.parse_scalar
    omega = obj.get("omega")
    if not isinstance(omega, list):
        raise ShapeError("omega must be an array of labels", "omega")

    families = {}
    for role, raw in _object(obj.get("families"), "families must be an object",
                             "families").items():
        path = f"families.{role}"
        if kind in RB_KINDS:
            families[role] = BilinearMap(field, read_array(raw, 3, path, read))
        else:
            families[role] = {
                lab: BilinearMap(field, read_array(t, 3, f"{path}.{lab}", read))
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
            ops={lab: LinearMap(field, read_array(m, 2, f"operators.ops.{lab}", read))
                 for lab, m in ops.items()},
            weights={lab: read(w, f"operators.weights.{lab}")
                     for lab, w in weights.items()})

    twist = None
    if "twist" in obj:
        twist = LinearMap(field, read_array(obj["twist"], 2, "twist", read))
    return make_doc(field, obj.get("dim"), omega, kind, families, operators, twist)


# --- check reports ----------------------------------------------------------

class Violation(Frozen):
    """One failed identity instance, replayable from its coordinates."""

    __slots__ = ("axiom", "labels", "basis", "lhs", "rhs")

    def __init__(self, axiom: str, labels: tuple, basis: tuple, lhs: tuple, rhs: tuple):
        put = object.__setattr__
        put(self, "axiom", axiom)
        put(self, "labels", labels)
        put(self, "basis", basis)
        put(self, "lhs", lhs)
        put(self, "rhs", rhs)


class CheckReport(Frozen):
    __slots__ = ("verdict", "violations")

    def __init__(self, verdict: str, violations: tuple = ()):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "violations", violations)
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
    """report as the JSON object the CLI writes; a scalar with more digits
    than Python's int-to-string limit is a ShapeError at its path."""
    def jsonable(spell):
        return {
            "verdict": report.verdict,
            "violations": [
                {
                    "axiom-id": v.axiom,
                    "omega-indices": list(v.labels),
                    "basis-indices": list(v.basis),
                    "lhs": [spell(x) for x in v.lhs],
                    "rhs": [spell(x) for x in v.rhs],
                }
                for v in report.violations
            ],
        }
    return _spelled(jsonable, field)
