"""Workload inputs: the closure pool, the fixed search requests and the pipe
stream.

The closure pool and the pipe stream are drawn from the workload seed; the
search requests do not depend on it.  Every input is built through halg's
public API, so the program under test only ever sees generated docs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from halg import (GF, QQ, BilinearMap, CoefficientFamily, LinearMap,
                  OperatorFamily, SearchSpec, TARGET_COMMUTING,
                  TARGET_ENDOMORPHISM, TARGET_RB_FAMILY, catalog, commutator,
                  dendriform_sum, make_doc, map_compose, map_invert,
                  postcompose, precompose_left, precompose_right,
                  prelie_commutator, rb_to_dendriform, rb_to_prelie,
                  rb_to_tridendriform, seeded_sample, tensor_combine,
                  yau_twist)
from halg import constructions
from halg.structures import (HOM_ASSOC_MATCHING_RB, MATCHING_HOM_ASSOC,
                             MATCHING_HOM_LIE, PLAIN_ASSOC_MATCHING_RB,
                             PLAIN_RB_KINDS, TOTALLY_COMPATIBLE_HOM_ASSOC)

F2, F3, F5 = GF(2), GF(3), GF(5)

# --- closure: the criterion-2 pool and battery --------------------------------


def _zero_hom_assoc(field, dim):
    return make_doc(field, dim, ("a",), MATCHING_HOM_ASSOC,
                    {"dot": {"a": BilinearMap.zero(field, dim)}},
                    twist=LinearMap.identity(field, dim))


def _perturbed(doc, rng):
    """The doc with one operator entry moved; it may or may not still pass."""
    field, dim = doc.field, doc.dim
    lab = rng.choice(doc.labels)
    rows = [list(r) for r in doc.operators.ops[lab].rows]
    i, j = rng.randrange(dim), rng.randrange(dim)
    rows[i][j] = field.reduce(rows[i][j] + 1 + rng.randrange(field.p - 1))
    ops = dict(doc.operators.ops)
    ops[lab] = LinearMap.from_rows(field, rows)
    return make_doc(field, dim, doc.omega, doc.kind, doc.families,
                    operators=OperatorFamily(ops=ops, weights=doc.operators.weights),
                    twist=doc.twist)


def closure_pool(seed: int):
    """The catalog plus seeded_sample RB families over F_2 and F_3 (dims 1-3,
    Omega of 1-3), endomorphism and commuting hits, and one perturbed copy of
    every sixth sampled family, so the full-report refusal path runs too.
    The classes are criterion 2's, at half its sample counts."""
    rng = random.Random(seed)
    docs = list(catalog().values())
    sampled = []

    def take(spec, count):
        sampled.extend(seeded_sample(spec, rng.randrange(1 << 30), count).docs)

    for suffix, field in (("-F2", F2), ("-F3", F3)):
        m1 = field.reduce(-1)
        take(SearchSpec(catalog("Z2" + suffix), TARGET_RB_FAMILY,
                        omega_size=1, weights=(0,)), 20)
        take(SearchSpec(catalog("Z2" + suffix), TARGET_RB_FAMILY,
                        omega_size=2, weights=(0, 1)), 20)
        take(SearchSpec(catalog("N2" + suffix), TARGET_RB_FAMILY,
                        omega_size=1, weights=(0,)), 12)
        take(SearchSpec(catalog("N2" + suffix), TARGET_RB_FAMILY,
                        omega_size=1, weights=(m1,)), 13)
        take(SearchSpec(catalog("D1" + suffix), TARGET_RB_FAMILY,
                        omega_size=2, weights=(m1, m1)), 10)
        take(SearchSpec(_zero_hom_assoc(field, 3), TARGET_RB_FAMILY,
                        omega_size=3, weights=(0, 1, field.reduce(2))), 20)
        take(SearchSpec(catalog("N2-Pnil-w0" + suffix), TARGET_ENDOMORPHISM), 15)
        take(SearchSpec(catalog("N2-Pnil-w0" + suffix), TARGET_COMMUTING), 15)
    perturbed = [_perturbed(d, rng) for d in sampled[::6]]
    return docs + sampled + perturbed


def battery(doc):
    """(recipe, thunk) for every construction attempt on doc: criterion 2's
    battery, plus verify_diagram on weight-0 docs.  Constructions are looked
    up on the module at call time, so a traced run sees every call."""
    c = constructions
    field = doc.field
    id_map = LinearMap.identity(field, doc.dim)
    two_id = LinearMap.from_rows(
        field, [[field.reduce(2) if i == j else 0 for j in range(doc.dim)]
                for i in range(doc.dim)])
    maps = [id_map, two_id]
    if doc.kind in PLAIN_RB_KINDS and doc.twist is not None:
        maps.append(doc.twist)
    out = []
    for p in maps:
        out.append(("yau_twist", lambda p=p: c.yau_twist(doc, p)))
        out.append(("centroid_twist", lambda p=p: c.centroid_twist(doc, p, 1)))
        out.append(("centroid_twist", lambda p=p: c.centroid_twist(doc, p, 2)))
    out.append(("untwist", lambda: c.untwist(doc)))
    for n in (0, 1, 2):
        out.append(("derived_algebra", lambda n=n: c.derived_algebra(doc, n, 1)))
    out.append(("derived_algebra", lambda: c.derived_algebra(doc, 1, 2)))
    out.append(("commutator", lambda: c.commutator(doc)))
    out.append(("prelie_commutator", lambda: c.prelie_commutator(doc)))
    ones = {lab: 1 for lab in doc.labels}
    out.append(("collapse_family", lambda: c.collapse_family(doc, ones)))
    cf = CoefficientFamily({lab: field.reduce(i + 1)
                            for i, lab in enumerate(doc.labels)})
    out.append(("collapse_family", lambda: c.collapse_family(doc, cf)))
    out.append(("rb_to_dendriform", lambda: c.rb_to_dendriform(doc)))
    out.append(("rb_to_tridendriform", lambda: c.rb_to_tridendriform(doc)))
    out.append(("rb_to_prelie", lambda: c.rb_to_prelie(doc)))
    out.append(("dendriform_twist", lambda: c.dendriform_twist(doc, id_map)))
    out.append(("dendriform_sum", lambda: c.dendriform_sum(doc)))
    out.append(("dendriform_to_prelie", lambda: c.dendriform_to_prelie(doc)))
    if doc.operators is not None and all(
            w == 0 for w in doc.operators.weights.values()):
        out.append(("verify_diagram", lambda: c.verify_diagram(doc)))
    return out


# --- search: fixed requests with pinned answers --------------------------------


@dataclass(frozen=True)
class SearchRequest:
    name: str
    spec: SearchSpec
    hits: int          # pinned hit count
    digest: str        # pinned sha256 of the hit stream, "" when not pinned
    repeats: int = 1   # runs per pass; the median of each request is taken


# Requests below a second run this many times a pass, so each one's median
# rests on several samples without the large requests dominating the run.
SMALL_REPEATS = 3


def _rb_base(field, dim, c, op_rows, weight=0):
    return make_doc(field, dim, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.from_nested(field, c)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, op_rows)},
                        weights={"a": weight}))


def _twisted_n2_f3():
    """tests/test_search.py's Hom base: N2 over F_3 twisted by diag(1, 2)."""
    base = _rb_base(F3, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [[0, 0], [0, 0]])
    return yau_twist(base, LinearMap.from_rows(F3, [[1, 0], [0, 2]]))


def _f2_assoc_tensors():
    """The 28 associative products on F_2^2, decided over all elements."""
    def mul(c, x, y):
        return tuple(sum(x[i] * y[j] * c[i][j][k] for i in range(2)
                         for j in range(2)) % 2 for k in range(2))
    vecs = [(0, 0), (1, 0), (0, 1), (1, 1)]
    out = []
    for n in range(256):
        bits = [(n >> (7 - b)) & 1 for b in range(8)]
        c = [[bits[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)]
             for i in range(2)]
        if all(mul(c, mul(c, x, y), z) == mul(c, x, mul(c, y, z))
               for x in vecs for y in vecs for z in vecs):
            out.append(c)
    return out


def search_requests():
    """The fixed request set.  Pinned counts come from tests/test_search.py,
    criterion 3 (592 weight-0 families over all 30 F_2 associative bases of
    dim <= 2) and the first enumeration of each large request."""
    zero3 = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    shift3 = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    hom = _twisted_n2_f3()

    def rb(base, omega, weights):
        return SearchSpec(base, TARGET_RB_FAMILY, omega_size=omega,
                          weights=weights)

    named = [
        # the large requests: miss-heavy rb-family on N2-F3 with Omega = 2,
        # the same on a base with a non-identity twist, a hit-heavy
        # endomorphism search and a miss-heavy commuting search
        ("N2-F3.rb.w00", rb(catalog("N2-F3"), 2, (0, 0)), 9),
        ("N2-F3.rb.w01", rb(catalog("N2-F3"), 2, (0, 1)), 4),
        ("hom-N2-F3.rb.w00", rb(hom, 2, (0, 0)), 33),
        ("zero3-F3.endomorphism",
         SearchSpec(_rb_base(F3, 3, zero3, zero3[0]), TARGET_ENDOMORPHISM), 19683),
        ("shift3-F3.commuting",
         SearchSpec(_rb_base(F3, 3, zero3, shift3), TARGET_COMMUTING), 27),
        # the counts pinned in tests/test_search.py
        ("Z2-F2.rb.w0", rb(catalog("Z2-F2"), 1, (0,)), 16),
        ("Z2-F2.rb.w01", rb(catalog("Z2-F2"), 2, (0, 1)), 256),
        ("D1-F2.rb.w0", rb(catalog("D1-F2"), 1, (0,)), 1),
        ("D1-F2.rb.w1", rb(catalog("D1-F2"), 1, (1,)), 2),
        ("N2-F2.rb.w0", rb(catalog("N2-F2"), 1, (0,)), 2),
        ("N2-F2.rb.w1", rb(catalog("N2-F2"), 1, (1,)), 4),
        ("hom-N2-F3.rb.w0", rb(hom, 1, (0,)), 9),
        ("N2-Pnil-w0-F2.endomorphism",
         SearchSpec(catalog("N2-Pnil-w0-F2"), TARGET_ENDOMORPHISM), 3),
        ("N2-Pnil-w0-F2.commuting",
         SearchSpec(catalog("N2-Pnil-w0-F2"), TARGET_COMMUTING), 4),
    ]
    out = [SearchRequest(name, spec, hits, PIN[name], 1 if i < 5 else SMALL_REPEATS)
           for i, (name, spec, hits) in enumerate(named)]
    # criterion 3: one weight-0 request per base and label count; only the
    # total is pinned there (592), so each count is pinned here by its first
    # run.  The same bases at weights (0, 1) add miss-heavy requests of 256
    # candidates each.
    bases = [_rb_base(F2, 2, c, [[0, 0], [0, 0]]) for c in _f2_assoc_tensors()]
    bases += [_rb_base(F2, 1, [[[v]]], [[0]]) for v in (0, 1)]
    for n, base in enumerate(bases):
        for weights, hits in (((0,), C3_HITS[2 * n]), ((0, 0), C3_HITS[2 * n + 1]),
                              ((0, 1), C3_W01_HITS[n])):
            name = f"c3-{n:02d}.rb.w" + "".join(map(str, weights))
            out.append(SearchRequest(name, rb(base, len(weights), weights), hits, "",
                                     SMALL_REPEATS))
    return out


def criterion3_total(requests) -> int:
    """Hits of the weight-0 criterion-3 requests, which must sum to 592."""
    return sum(r.hits for r in requests
               if r.name.startswith("c3-") and not r.name.endswith(".w01"))


C3_TOTAL = 592

# Pinned from the first enumeration of each request: the hit counts of the
# criterion-3 requests (base n at Omega 1, then Omega 2) and of the same
# bases at weights (0, 1), and the sha256 of each named request's hit
# stream, one serialized doc and a newline per hit.
C3_HITS = (
    16, 256, 4, 16, 4, 16, 4, 16, 4, 10, 4, 10, 2, 4, 2, 4, 4, 16, 4, 16,
    2, 4, 1, 1, 4, 16, 1, 1, 4, 10, 4, 10, 2, 4, 1, 1, 2, 4, 1, 1,
    4, 10, 4, 10, 1, 1, 4, 16, 4, 16, 2, 4, 1, 1, 4, 16, 2, 4, 1, 1,
)
C3_W01_HITS = (
    256, 8, 8, 8, 14, 14, 4, 4, 8, 8, 4, 2, 8, 12, 14,
    14, 4, 12, 4, 2, 14, 14, 12, 8, 8, 4, 2, 8, 4, 2,
)
PIN = {
    "N2-F3.rb.w00":
        "00ee9390a7b7aef344c35bd0dfe606760a49407fc45583398d7dda2046faa371",
    "N2-F3.rb.w01":
        "068512af6e045be431e1c286fa8f165c9921091c36377deb1d525b815212928f",
    "hom-N2-F3.rb.w00":
        "4304309873c4225eb0a46cc9984a409e0bb77921b574da430b1e015852bfc644",
    "hom-N2-F3.rb.w01":
        "0efafdd08575cb4f070cbef39ad980ba2f11dfb9d27e31b28b8340888ae6a145",
    "zero3-F3.endomorphism":
        "59a713e1b8f315f0ea952d9d2740d7585ca5fb726174e33a376f3020e1d7f65c",
    "shift3-F3.commuting":
        "45a9264fe5a0ccbc277a06d13a100c3edeac0d0bac4284eafa152dc77aa0d907",
    "Z2-F2.rb.w0":
        "30126f5fbee03839fbd45837d00fa99a2868b35b3e62eb47c68130ec37d6fa19",
    "Z2-F2.rb.w01":
        "52dccc79dbce40e51ce589ffa4a118cd9b43c10b5eff16a3381a2465f10c0c69",
    "D1-F2.rb.w0":
        "aedaa70405f000bfa3fca865902894b00a21e640c3ca54d433be780a48480329",
    "D1-F2.rb.w1":
        "1730bdd83cd277c35a1cb1ed4098b5216f5de154cdd554d00cdfcb0b7a6ea806",
    "N2-F2.rb.w0":
        "66ab901655b6cbcccb64c24a75b70978c0a78a8159b5ad01abf154bd54f99204",
    "N2-F2.rb.w1":
        "cbc5d8b32c286df93721b8790ea035b129b2374f4ab09bd49822ee5d0bf71df4",
    "hom-N2-F3.rb.w0":
        "55c0b827ba680ca869c89ac091fc5d655ea0ebb9f5dd3cc3bf607a660ac11c16",
    "N2-Pnil-w0-F2.endomorphism":
        "17be0c9927f5a56936342c0d33a33b7f6c7671313f915e3007dfabbe22bcf2c2",
    "N2-Pnil-w0-F2.commuting":
        "ce66284477791545f4162ab493a91897faf83a1d1d542dd317c6dd418212cae1",
}


# --- pipe: a stream of passing docs of all 12 kinds ---------------------------

# Two-dimensional block L = [[a, b], [0, 0]] (e0 e0 = e0, e0 e1 = e1, the
# rest zero) carries the weight-0 Rota-Baxter operator e0 -> e1; the
# one-dimensional block K = k carries the zero operator.  Direct products of
# blocks keep every identity, and so does conjugation by an invertible map,
# which makes the docs dense and, over Q, fills them with fractions.
_L = ([[[1, 0], [0, 1]], [[0, 0], [0, 0]]], [[0, 0], [1, 0]])
_K = ([[[1]]], [[0]])


def _block_sum(blocks):
    dim = sum(len(c) for c, _ in blocks)
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    op = [[0] * dim for _ in range(dim)]
    off = 0
    for bc, bop in blocks:
        n = len(bc)
        for i in range(n):
            for j in range(n):
                op[off + i][off + j] = bop[i][j]
                for k in range(n):
                    c[off + i][off + j][off + k] = bc[i][j][k]
        off += n
    return c, op


def _twist_rows(dim):
    """An endomorphism commuting with the block operator: the identity on
    L, the projection onto L in L x K, and the swap of the factors in L x L."""
    if dim == 2:
        return [[1, 0], [0, 1]]
    if dim == 3:
        return [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    return [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


_BLOCKS = {2: [_L], 3: [_L, _K], 4: [_L, _L]}


# Scalars drawn for the stream come from fixed sets, and every carrier is
# conjugated by the same map up to a random relabelling of the basis, so the
# size of the rationals, and with it the cost of exact arithmetic, does not
# swing with the seed.
_Q_SCALARS = (Fraction(1, 2), Fraction(-1, 2), 2, -2)
_DIAGONAL = (2, Fraction(1, 3), Fraction(3, 2), 1)


def _random_scalar(field, rng):
    if field.is_prime_field:
        return 1 + rng.randrange(field.p - 1)
    return field.reduce(rng.choice(_Q_SCALARS))


def _random_invertible(field, dim, rng):
    """g = S L D: L unit lower triangular with ones below the diagonal, D a
    fixed diagonal and S a random permutation of the basis."""
    perm = list(range(dim))
    rng.shuffle(perm)
    ld = [[str(_DIAGONAL[j]) if j <= i else "0" for j in range(dim)] for i in range(dim)]
    g = LinearMap.from_rows(field, [[field.parse_scalar(v) for v in ld[perm[i]]]
                                    for i in range(dim)])
    return g, map_invert(g)


def _conj(m, g, ginv):
    return map_compose(map_compose(g, m), ginv)


def _rb_pair(field, dim, labels, rng):
    """A plain weight-0 matching RB doc and its Yau twist, both conjugated
    by one random invertible map."""
    c, op = _block_sum(_BLOCKS[dim])
    g, ginv = _random_invertible(field, dim, rng)
    prod = BilinearMap.from_nested(field, c)
    prod = postcompose(precompose_right(precompose_left(prod, ginv), ginv), g)
    op_map = _conj(LinearMap.from_rows(field, op), g, ginv)
    ops = {}
    for lab in labels:
        lam = _random_scalar(field, rng)
        ops[lab] = LinearMap.from_rows(
            field, [[field.reduce(lam * v) for v in row] for row in op_map.rows])
    plain = make_doc(field, dim, labels, PLAIN_ASSOC_MATCHING_RB, {"dot": prod},
                     operators=OperatorFamily(ops=ops, weights={lab: 0 for lab in labels}))
    p = _conj(LinearMap.from_rows(field, _twist_rows(dim)), g, ginv)
    return plain, yau_twist(plain, p)


def _scaled(field, kind, role, labels, m, twist, rng):
    fam = {lab: tensor_combine(field, [(_random_scalar(field, rng), m)])
           for lab in labels}
    return make_doc(field, m.dim, labels, kind, {role: fam}, twist=twist)


def _kind_docs(field, dim, labels, rng):
    """One passing doc of each of the 12 kinds, all on one carrier."""
    plain, hom = _rb_pair(field, dim, labels, rng)
    lie_hom = commutator(hom)
    dend = rb_to_dendriform(hom)
    prelie = rb_to_prelie(hom)
    return [
        plain, hom, commutator(plain), lie_hom, dend,
        rb_to_tridendriform(hom), prelie, dendriform_sum(dend),
        prelie_commutator(prelie),
        _scaled(field, MATCHING_HOM_ASSOC, "dot", labels, hom.product(), hom.twist, rng),
        _scaled(field, TOTALLY_COMPATIBLE_HOM_ASSOC, "dot", labels, hom.product(),
                hom.twist, rng),
        _scaled(field, MATCHING_HOM_LIE, "bracket", labels, lie_hom.product(),
                lie_hom.twist, rng),
    ]


PIPE_CARRIERS = 3   # independently conjugated carriers per field and dim


def pipe_stream(seed: int):
    """(stream, rb_subset): every kind over Q and over F_5 at dims 2, 3 and
    4 with one or two labels, on PIPE_CARRIERS carriers each, and the
    weight-0 associative RB docs of the stream, which rb-to-dendriform
    accepts."""
    rng = random.Random(seed)
    stream = []
    for field in (QQ, F5):
        for dim in (2, 3, 4):
            labels = ("a", "b") if dim < 4 else ("a",)
            for _ in range(PIPE_CARRIERS):
                stream.extend(_kind_docs(field, dim, labels, rng))
    rng.shuffle(stream)
    rb = [d for d in stream if d.kind in (PLAIN_ASSOC_MATCHING_RB,
                                          HOM_ASSOC_MATCHING_RB)]
    return stream, rb
