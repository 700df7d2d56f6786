"""An element-level reference for structure verdicts, independent of halg.

It reads a doc's canonical JSON with its own scalar parser and evaluates
every defining identity on whole carrier vectors: all vectors of F_p^d when
there are at most MAX_ALL of them (the technique criterion 1 uses), and
otherwise the basis plus RANDOM_VECTORS seeded dense vectors.  The
identities are written out here from their statements in halg's README and
axiom inventory (dendriform-3 in its default, twisted reading); no code is
shared with halg.axioms.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

MAX_ALL = 4
RANDOM_VECTORS = 1


class _Arith:
    def __init__(self, field):
        self.p = field.get("p") if field["kind"] == "prime-field" else None

    def scalar(self, raw):
        if isinstance(raw, str):
            num, _, den = raw.partition("/")
            v = Fraction(int(num), int(den or 1))
        else:
            v = Fraction(raw)
        return self.norm(v)

    def norm(self, v):
        if self.p is None:
            return v
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v % self.p


def _tensor(ar, raw):
    return [[[ar.scalar(v) for v in row] for row in plane] for plane in raw]


def _matrix(ar, raw):
    return [[ar.scalar(v) for v in row] for row in raw]


class _Alg:
    """Vector arithmetic on one doc's carrier."""

    def __init__(self, ar, dim):
        self.ar, self.dim = ar, dim

    def mul(self, c, x, y):
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        w = xi * yj
                        for k, s in enumerate(c[i][j]):
                            out[k] += w * s
        return tuple(self.ar.norm(v) for v in out)

    def app(self, m, x):
        d = self.dim
        return tuple(self.ar.norm(sum(m[k][j] * x[j] for j in range(d)))
                     for k in range(d))

    def add(self, *vs):
        return tuple(self.ar.norm(sum(col)) for col in zip(*vs))

    def sub(self, u, v):
        return tuple(self.ar.norm(a - b) for a, b in zip(u, v))

    def scale(self, w, v):
        return tuple(self.ar.norm(w * a) for a in v)


def _vectors(ar, dim, rng):
    if ar.p is not None and ar.p ** dim <= MAX_ALL:
        return [tuple(v) for v in itertools.product(range(ar.p), repeat=dim)]
    basis = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
    dense = []
    for _ in range(RANDOM_VECTORS):
        if ar.p is None:
            dense.append(tuple(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                               for _ in range(dim)))
        else:
            dense.append(tuple(rng.randrange(1, ar.p) for _ in range(dim)))
    return basis + dense


def _identities(kind, A, fam, p, ops, weights):
    """[(name, labelled, arity, f)] with f(a, b, *vectors) -> (lhs, rhs)."""
    m, ad, sub, ap = A.mul, A.add, A.sub, A.app
    P = lambda v: ap(p, v)  # noqa: E731
    zero = tuple(0 for _ in range(A.dim))
    out = []
    if kind in ("matching-hom-assoc", "totally-compatible-hom-assoc",
                "compatible-hom-assoc"):
        c = fam["dot"]

        def ma(a, b, x, y, z):
            return m(c[b], m(c[a], x, y), P(z)), m(c[a], P(x), m(c[b], y, z))

        def tc(a, b, x, y, z):
            return m(c[b], m(c[a], x, y), P(z)), m(c[b], P(x), m(c[a], y, z))
        if kind == "matching-hom-assoc":
            out.append(("matching", True, 3, ma))
        elif kind == "totally-compatible-hom-assoc":
            out.append(("totally", True, 3, tc))
        else:
            out.append(("compatible", True, 3, lambda a, b, x, y, z: (
                ad(ma(a, b, x, y, z)[0], ma(b, a, x, y, z)[0]),
                ad(ma(a, b, x, y, z)[1], ma(b, a, x, y, z)[1]))))
    elif kind in ("matching-hom-lie", "compatible-hom-lie"):
        c = fam["bracket"]

        def jac(a, b, x, y, z):
            return ad(m(c[a], P(x), m(c[b], y, z)), m(c[b], P(y), m(c[a], z, x)),
                      m(c[b], P(z), m(c[a], x, y)))
        if kind == "matching-hom-lie":
            out.append(("jacobi", True, 3, lambda a, b, x, y, z: (jac(a, b, x, y, z), zero)))
        else:
            out.append(("jacobi", True, 3, lambda a, b, x, y, z: (
                ad(m(c[b], P(x), m(c[a], y, z)), m(c[b], P(y), m(c[a], z, x)),
                   m(c[b], P(z), m(c[a], x, y)), m(c[a], P(x), m(c[b], y, z)),
                   m(c[a], P(y), m(c[b], z, x)), m(c[a], P(z), m(c[b], x, y))), zero)))
    elif kind == "matching-hom-prelie":
        c = fam["star"]
        out.append(("prelie", True, 3, lambda a, b, x, y, z: (
            sub(m(c[a], P(x), m(c[b], y, z)), m(c[b], m(c[a], x, y), P(z))),
            sub(m(c[b], P(y), m(c[a], x, z)), m(c[a], m(c[b], y, x), P(z))))))
    elif kind == "matching-hom-dendriform":
        L, R = fam["left"], fam["right"]
        out += [
            ("d1", True, 3, lambda a, b, x, y, z: (
                m(L[b], m(L[a], x, y), P(z)),
                ad(m(L[a], P(x), m(L[b], y, z)), m(L[b], P(x), m(R[a], y, z))))),
            ("d2", True, 3, lambda a, b, x, y, z: (
                m(L[b], m(R[a], x, y), P(z)), m(R[a], P(x), m(L[b], y, z)))),
            ("d3", True, 3, lambda a, b, x, y, z: (
                ad(m(R[a], m(L[b], x, y), P(z)), m(R[b], m(R[a], x, y), P(z))),
                m(R[a], P(x), m(R[b], y, z)))),
        ]
    elif kind == "matching-hom-tridendriform":
        L, M, R = fam["left"], fam["middle"], fam["right"]
        out += [
            ("t1", True, 3, lambda a, b, x, y, z: (
                m(L[b], m(L[a], x, y), P(z)),
                ad(m(L[a], P(x), m(L[b], y, z)), m(L[b], P(x), m(R[a], y, z)),
                   m(L[a], P(x), m(M[b], y, z))))),
            ("t2", True, 3, lambda a, b, x, y, z: (
                m(L[b], m(R[a], x, y), P(z)), m(R[a], P(x), m(L[b], y, z)))),
            ("t3", True, 3, lambda a, b, x, y, z: (
                m(R[a], P(x), m(R[b], y, z)),
                ad(m(R[a], m(L[b], x, y), P(z)), m(R[b], m(R[a], x, y), P(z)),
                   m(R[a], m(M[b], x, y), P(z))))),
            ("t4", True, 3, lambda a, b, x, y, z: (
                m(M[b], m(R[a], x, y), P(z)), m(R[a], P(x), m(M[b], y, z)))),
            ("t5", True, 3, lambda a, b, x, y, z: (
                m(M[b], m(L[a], x, y), P(z)), m(M[b], P(x), m(R[a], y, z)))),
            ("t6", True, 3, lambda a, b, x, y, z: (
                m(L[b], m(M[a], x, y), P(z)), m(M[a], P(x), m(L[b], y, z)))),
            ("t7", True, 3, lambda a, b, x, y, z: (
                m(M[b], m(M[a], x, y), P(z)), m(M[a], P(x), m(M[b], y, z)))),
        ]
    else:  # the four Rota-Baxter kinds carry one product
        role = "dot" if "assoc" in kind else "bracket"
        c = next(iter(fam[role].values()))
        if role == "dot":
            out.append(("hom-assoc", False, 3, lambda a, b, x, y, z: (
                m(c, m(c, x, y), P(z)), m(c, P(x), m(c, y, z)))))
        else:
            out.append(("hom-jacobi", False, 3, lambda a, b, x, y, z: (
                ad(m(c, P(x), m(c, y, z)), m(c, P(y), m(c, z, x)),
                   m(c, P(z), m(c, x, y))), zero)))

        def rb(a, b, x, y):
            pa, pb, w = ops[a], ops[b], weights[b]
            return (m(c, ap(pa, x), ap(pb, y)),
                    ad(ap(pa, m(c, x, ap(pb, y))), ap(pb, m(c, ap(pa, x), y)),
                       A.scale(w, ap(pa, m(c, x, y)))))
        out.append(("matching-rb", True, 2, rb))
    return out


def structure_holds(doc_bytes: bytes, seed: int = 0) -> bool:
    """The verdict of a doc's defining identities, decided on vectors."""
    obj = json.loads(doc_bytes)
    ar = _Arith(obj["field"])
    dim = obj["dim"]
    labels = obj["omega"]
    kind = obj["kind"]
    rb_kind = kind.endswith("matching-rb") or kind == "matching-hom-lie-rb"
    fam = {}
    for role, raw in obj["families"].items():
        if rb_kind:
            t = _tensor(ar, raw)
            fam[role] = {lab: t for lab in labels}
        else:
            fam[role] = {lab: _tensor(ar, raw[lab]) for lab in labels}
    identity = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    plain = kind.startswith("plain-")
    p = identity if plain or "twist" not in obj else _matrix(ar, obj["twist"])
    ops = weights = None
    if "operators" in obj:
        ops = {lab: _matrix(ar, obj["operators"]["ops"][lab]) for lab in labels}
        weights = {lab: ar.scalar(obj["operators"]["weights"][lab]) for lab in labels}
    A = _Alg(ar, dim)
    vecs = _vectors(ar, dim, random.Random(seed))
    for _, labelled, arity, f in _identities(kind, A, fam, p, ops, weights):
        pairs = [(a, b) for a in labels for b in labels] if labelled else [(None, None)]
        for a, b in pairs:
            for args in itertools.product(vecs, repeat=arity):
                lhs, rhs = f(a, b, *args)
                if lhs != rhs:
                    return False
    return True
