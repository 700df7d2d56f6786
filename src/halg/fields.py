"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values rather than wrapper objects: over the
rationals they are `fractions.Fraction` or `int` (two spellings of the same
number compare, hash, and serialize identically), over F_p they are ints in
``[0, p)``.  A `Field` value carries the context needed to reduce, invert,
parse, and format them.  Everything is exact; nothing ever rounds.

Hot loops elsewhere accumulate with native ``+``/``*`` on ints and call
:meth:`Field.reduce` once per result entry, which keeps ``% p`` reductions at
the edges.  Over the rationals the evaluator in `axioms` binds every map as
ints times one common denominator, so Fractions appear only where scalars are
parsed, where a witness's sides or a constructed tensor's entries are divided
back, and where documents are serialized.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DocSyntaxError, ShapeError, ZeroDenominatorError

Scalar = int | Fraction

RATIONALS = "rationals"
PRIME_FIELD = "prime-field"


# Miller-Rabin with the first twelve primes as bases decides primality
# exactly below 318665857834031151167461 > 2^64 (OEIS A014233), so for
# every modulus halg accepts.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 1 << 64

# An int of fewer bits has fewer decimal digits than the lowest limit that
# sys.set_int_max_str_digits accepts, so it always converts to a string.
_SHORT_BITS = 3 * sys.int_info.str_digits_check_threshold


def _is_prime(n: int) -> bool:
    """Whether n < MAX_MODULUS is prime, by Miller-Rabin on _WITNESSES."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Arithmetic context: the rationals, or F_p for a prime p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p is not None:
                raise ShapeError("rationals take no modulus", "field.p")
        elif self.kind == PRIME_FIELD:
            if isinstance(self.p, int) and self.p >= MAX_MODULUS:
                raise ShapeError("p must be below 2^64", "field.p")
            if not isinstance(self.p, int) or isinstance(self.p, bool) or not _is_prime(self.p):
                raise ShapeError("p must be a prime integer", "field.p")
        else:
            raise ShapeError(f"unknown field kind {self.kind!r}", "field.kind")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == PRIME_FIELD

    @property
    def zero(self) -> Scalar:
        return 0

    @property
    def one(self) -> Scalar:
        return 1

    def reduce(self, v):
        """Canonicalize a raw arithmetic result into this field."""
        if self.kind == PRIME_FIELD:
            return v % self.p
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        return v

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self.reduce(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return self.reduce(-a)

    def inv(self, a: Scalar) -> Scalar:
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        if self.kind == PRIME_FIELD:
            a = a % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero in prime field")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.reduce(Fraction(1) / Fraction(a))

    def parse_scalar(self, raw, path: str = "scalar") -> Scalar:
        """Read a scalar from its JSON spelling (int, or a string "a" / "a/b").

        Inputs are canonicalized: residues are reduced into ``[0, p)`` and
        fractions into lowest terms with a positive denominator.  Floats and
        booleans are rejected; exactness is the whole point.
        """
        if isinstance(raw, bool):
            raise ShapeError("scalar must be an integer or a fraction string", path)
        if isinstance(raw, int):
            return self.reduce(raw)
        if isinstance(raw, str):
            text = raw.strip()
            try:
                if "/" in text:
                    num_s, den_s = text.split("/", 1)
                    num, den = int(num_s), int(den_s)
                else:
                    num, den = int(text), 1
            except ValueError:
                raise ShapeError(f"cannot parse scalar {raw!r}", path) from None
            if den == 0:
                raise ZeroDenominatorError("zero denominator", path)
            return self.canonical(Fraction(num, den), path)
        raise ShapeError(f"scalar must be an integer or string, got {type(raw).__name__}", path)

    def canonical(self, v, path: str = "scalar") -> Scalar:
        """The canonical scalar of this field equal to the int or Fraction v.

        Over F_p a fraction a/b is a * b^-1, and a denominator divisible by
        p raises ZeroDenominatorError at path; over the rationals v is kept
        in lowest terms.  Floats, booleans and other types raise ShapeError.
        """
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ShapeError(
                f"scalar must be an integer or a Fraction, got {type(v).__name__}", path)
        if self.kind == PRIME_FIELD and isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDenominatorError(f"denominator of {v} is zero mod {self.p}", path)
            return v.numerator * self.inv(v.denominator) % self.p
        return self.reduce(v)

    def first_noncanonical(self, row):
        """The index of the first entry of row that is not a canonical scalar
        of this field, or None: over F_p an int in [0, p), over the
        rationals an int or a Fraction whose denominator is not 1."""
        p = self.p
        for j, v in enumerate(row):
            if not (type(v) is int and (p is None or 0 <= v < p)
                    or p is None and type(v) is Fraction and v.denominator != 1):
                return j
        return None

    def format_scalar(self, v: Scalar):
        """JSON spelling of a canonical scalar: int, or "num/den" when needed.
        A scalar with more digits than Python's int-to-string limit
        (sys.get_int_max_str_digits()) has none: ValueError."""
        if isinstance(v, Fraction):
            if v.denominator != 1:
                return f"{v.numerator}/{v.denominator}"
            v = v.numerator
        if type(v) is int and v.bit_length() >= _SHORT_BITS:
            str(v)
        return v

    def random_scalar(self, rng) -> Scalar:
        if self.kind != PRIME_FIELD:
            raise DocSyntaxError("cannot sample the rationals uniformly")
        return rng.randrange(self.p)


QQ = Field(RATIONALS)


def GF(p: int) -> Field:
    return Field(PRIME_FIELD, p)


def field_to_jsonable(field: Field) -> dict:
    if field.kind == PRIME_FIELD:
        return {"kind": PRIME_FIELD, "p": field.p}
    return {"kind": RATIONALS}


def field_from_jsonable(raw, path: str = "field") -> Field:
    if not isinstance(raw, dict):
        raise ShapeError("field must be an object", path)
    kind = raw.get("kind")
    if kind == RATIONALS:
        extra = set(raw) - {"kind"}
        if extra:
            raise ShapeError(f"unexpected keys {sorted(extra)}", path)
        return QQ
    if kind == PRIME_FIELD:
        extra = set(raw) - {"kind", "p"}
        if extra:
            raise ShapeError(f"unexpected keys {sorted(extra)}", path)
        return Field(PRIME_FIELD, raw.get("p"))
    raise ShapeError(f"unknown field kind {kind!r}", path + ".kind")
