"""The generator of `halg._runners`: one runner per row of the law table
(`axioms._tables`) and of the fill table (`axioms._FILLS`), written ahead
of time as Python source.

    python -m halg._codegen           # rewrite src/halg/_runners.py
    python -m halg._codegen --check   # exit 1 when that file is stale

Run it after editing a row; a tier-1 test regenerates the module and
compares it byte for byte.  No runtime module imports this one, so a halg
process parses, generates and compiles no law: it imports the runners.

Each row becomes one generated function, run(F, tuples, pts, every, R),
from the term trees of its sides; the row's roles share it, each given as
R.  For each label tuple in tuples it reads each map the row names from the
frame F, a map named with a label variable at that tuple's label
("F['P'][labs[0]]") and the others once per call ("F['m~']"); a labelled
m, m~, m2 or m2~ is read at the role R ("F[R + '2~'][labs[0]]"), so no
frame binds a name per role.  Linear maps are bound as their column tuples.
Then it loops over the basis tuples pts, and at each runs the guard, the
lhs and every rhs inline.  A map on basis slots only is a table lookup (a
structure constant, or a column); every other node calls a linalg kernel,
and a side of several terms adds (or subtracts) them entry by entry.  A
bilinear map that a side multiplies through is read in its sparse form
(linalg.sparse_tensor), bound under its name with "~" after the role
("dot~.a", "m~"); lookups read the dense tensor.  The runner yields (labs,
ix, held, sides), sides being the unreduced lhs and each rhs and held
whether the guard holds at ix: with every set, at every instance, and
otherwise only where the guard does not hold and some rhs differs from the
lhs as it stands.

The guard holds at ix when every side is provably the zero vector there: a
term is provably zero when a structure constant c[i][j] or a column it
looks up is the zero vector, when it scales by a weight w that is 0, when
it multiplies through the zero tensor, or when a map is applied to a
provably zero term.  Whether a tensor is zero is read once from its sparse
form where the runner binds it ("z0 = not any(b0)"): once per call for
"m~", once per label tuple for "dot~.a".  A side is zero when all its terms
are (the empty side always is).  The guard reads only lookups, weights and
those flags, so it costs far less than the sides; an instance it holds at
cannot fail, and the runner skips it unless every is set.

A row's degree K is the largest number of maps and weights one of its
terms applies ("-" is a sign, not a map).  A frame binds every scalar times
its D (axioms._scaled), so a term of degree k evaluates to D^k times its
value.  So the runner multiplies each term by D^(K - k), read as the scalar
name "D" that every frame binds, and every side is D^K times its value; a
row whose terms all have degree K runs as written.  The factor is folded
into the term's outermost linear map (`_padded`): f(m.a(X, Y)) runs as
(D*f)(m.a(X, Y)), with the columns of D*f bound once per runner call, and
right.a(X, right.b(Y, Z)) reads X from D times the basis, so no instance
multiplies by D.  One runner serves every frame, D = 1 included (every
frame over F_p), with no branch on D.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from .axioms import _FILLS, _MAP_LAWS, _STRUCTURE_LAWS

TARGET = Path(__file__).with_name("_runners.py")

_HEADER = '''\
"""The runner of every row of halg.axioms' law and fill tables, generated
from those rows by `python -m halg._codegen`: do not edit.  RUNNERS maps a
row to (arity, degree, run, linear): its basis tuples' length, its degree
K, its runner, and the maps each of its terms applies exactly once."""

from operator import add, sub

from .linalg import apply_raw as app
from .linalg import bilinear_raw as mul
'''


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
    """The runner's local b<i> for the map name; appended to names on first
    use, after D and the map that a scaled map "D*n" is bound from."""
    if name not in names:
        if name.startswith("D*"):
            _ref("D", names)
            if name != "D*E":
                _ref(name[2:], names)
        names.append(name)
    return f"b{names.index(name)}"


def _is_scalar(name):
    return name.partition(".")[0] in ("-", "w")


def _degree(term):
    """The number of maps and weights term applies."""
    if isinstance(term, int):
        return 0
    return (term[0] != "-") + sum(map(_degree, term[1:]))


def _padded(term, n):
    """term multiplied by D^n, the factor folded into the term's outermost
    linear map: f(t) becomes (D*f)(t), "D*f" being D times f's columns,
    bound once per runner call.  A sign or a weight passes it to its
    argument, and a bilinear map to its first argument that is not a
    lookup, or else its first; a basis slot X is read from "D*E", D times
    the basis."""
    if not n:
        return term
    if isinstance(term, int):
        return _padded(("D*E", term), n - 1)
    name, *args = term
    if len(args) == 1:
        if _is_scalar(name):
            return (name, _padded(args[0], n))
        return _padded(("D*" + name, *args), n - 1)
    k = next((k for k, t in enumerate(args) if isinstance(t, int) or not _lookup(t)), 0)
    args[k] = _padded(args[k], n)
    return (name, *args)


def _lookup(term):
    """Whether term is a map applied to basis slots only: a table lookup."""
    return not _is_scalar(term[0]) and all(isinstance(t, int) for t in term[1:])


def _sparse(name, names):
    """The runner's local for the sparse form of the bilinear map name,
    bound under name with "~" after the role ("dot~.a" for "dot.a")."""
    key, dot, var = name.partition(".")
    return _ref(key + "~" + dot + var, names)


def _source(term, names):
    """Python expression for term at the basis tuple (i0, i1, i2); each map
    it names is appended to names once and read as its local (_ref)."""
    if isinstance(term, int):
        return f"E[i{term}]"
    name, *args = term
    if _lookup(term):
        return _ref(name, names) + "".join(f"[i{t}]" for t in args)
    if len(args) == 2:
        return (f"mul({_sparse(name, names)}, "
                f"{_source(args[0], names)}, {_source(args[1], names)})")
    arg, = args
    if _is_scalar(name):
        return f"[{_ref(name, names)} * v for v in {_source(arg, names)}]"
    return f"app({_ref(name, names)}, {_source(arg, names)})"


def _zero_source(term, names):
    """Python condition under which term is provably the zero vector, or
    None when nothing can prove it (a basis slot)."""
    if isinstance(term, int) or term[0].endswith("*E"):
        return None    # a basis slot, or D times one
    if _lookup(term):
        return f"not any({_source(term, names)})"
    name, *args = term
    conds = [f"not {_ref(name, names)}"] if name.partition(".")[0] == "w" else []
    if len(args) == 2:
        # z<i>, bound beside the sparse form b<i>: the tensor is zero
        conds.append("z" + _sparse(name, names)[1:])
    conds += filter(None, (_zero_source(t, names) for t in args))
    return " or ".join(conds) or None


def _side_source(side, names):
    """Python expression for the sum of side's terms; each term after the
    first is added, or taken away where it is subtracted, entry by entry."""
    if not side:
        return "Z"
    out = _source(side[0], names)
    if len(side) == 1:
        return out
    for term in side[1:]:
        if isinstance(term, tuple) and term[0] == "-":
            out = f"map(sub, {out}, {_source(term[1], names)})"
        else:
            out = f"map(add, {out}, {_source(term, names)})"
    return f"list({out})"


def _guard_source(sides, names):
    conds = [_zero_source(t, names) for side in sides for t in side]
    if None in conds:
        return None
    return " and ".join(f"({c})" for c in dict.fromkeys(conds)) or "True"


def _applies(term, name):
    """How many times term applies the map name."""
    if isinstance(term, int):
        return 0
    return (term[0] == name) + sum(_applies(t, name) for t in term[1:])


def _names(term):
    """The maps and weights term applies."""
    if isinstance(term, int):
        return set()
    return {term[0]} - {"-"} | set().union(*map(_names, term[1:]))


def _sides(law):
    """law's lhs and each rhs as term lists (_terms)."""
    return [_terms(ast.parse(side, mode="eval").body) for side in (law.lhs, *law.rhs)]


def _slots(term):
    if isinstance(term, int):
        return {term}
    return set().union(*map(_slots, term[1:]))


def _runner_source(labels, arity, sides):
    """The source of run (above) for the label variables labels and the
    sides, term lists over arity basis slots."""
    names = []
    guard = _guard_source(sides, names)
    values = [_side_source(side, names) for side in sides]
    once, per_labs = [], []
    for i, name in enumerate(names):
        if name.startswith("D*"):
            # D times a map's columns, or the basis, where the map is read
            cols = 'F["basis"]' if name == "D*E" else _ref(name[2:], names)
            (per_labs if "." in name else once).append(
                f"b{i} = [tuple([{_ref('D', names)} * v for v in c]) for c in {cols}]")
            continue
        key, _, var = name.partition(".")
        if var and key.rstrip("2~") == "m":    # the role under check, R
            at = f"R + {key[1:]!r}" if key[1:] else "R"
        else:
            at = repr(key)
        lines = per_labs if var else once
        lines.append(f"b{i} = F[{at}][labs[{labels.index(var)}]]" if var
                     else f"b{i} = F[{at}]")
        if guard is not None and key.endswith("~"):
            lines.append(f"z{i} = not any(b{i})")
    if any("E[" in value for value in values):
        once.append('E = F["basis"]')
    if not all(sides):
        once.append('Z = [0] * len(F["basis"])')
    body = [f"{''.join(f'i{s}, ' for s in range(arity))}= ix"]
    if guard is not None:
        once.append("skip = not every")
        body += [f"if (held := {guard}) and skip:", "    continue"]
    body += [f"s{k} = {value}" for k, value in enumerate(values)]
    body += [" or ".join(["if every", *(f"s0 != s{k}" for k in range(1, len(sides)))]) + ":",
             f"    yield labs, ix, {'held' if guard else 'False'}, "
             f"({', '.join(f's{k}' for k in range(len(sides)))},)"]
    return "\n".join(["def run(F, tuples, pts, every, R):",
                      *("    " + line for line in once),
                      "    for labs in tuples:",
                      *("        " + line for line in per_labs),
                      "        for ix in pts:",
                      *("            " + line for line in body)])


def rows():
    """Every distinct row: the structure laws, the map laws, then the fill
    rows, each table in its order."""
    out = dict.fromkeys(law for laws in _STRUCTURE_LAWS.values() for law in laws)
    out.update(dict.fromkeys(law for _, laws in _MAP_LAWS.values() for law in laws))
    out.update(dict.fromkeys(_FILLS.values()))
    return list(out)


def facts(law):
    """(arity, degree, padded sides, linear) for law: the number of basis
    slots its sides read, its degree K, its sides with each term brought to
    K by powers of D, and the maps each of its terms applies exactly once,
    sorted (a law is linear in each)."""
    sides = _sides(law)
    terms = [t for side in sides for t in side]
    arity = 1 + max(s for t in terms for s in _slots(t))
    degree = max(map(_degree, terms))
    linear = sorted(n for n in set().union(*map(_names, terms))
                    if all(_applies(t, n) == 1 for t in terms))
    padded = [[_padded(t, degree - _degree(t)) for t in side] for side in sides]
    return arity, degree, padded, tuple(linear)


def source():
    """The text of halg._runners: one function per distinct runner source,
    shared by the rows that generate it, and RUNNERS, keyed by each row as
    a plain tuple (equal, and hashing equal, to the axioms._Law row)."""
    defs, entries = {}, []
    for law in rows():
        arity, degree, padded, linear = facts(law)
        text = _runner_source(law.labels, arity, padded)
        name = defs.setdefault(text, f"_run{len(defs)}")
        entries.append(f"    {tuple(law)!r}:\n        ({arity}, {degree}, {name}, {linear!r}),")
    funcs = [text.replace("def run(", f"def {name}(", 1) for text, name in defs.items()]
    return "\n\n\n".join([_HEADER.rstrip("\n"), *funcs,
                          "RUNNERS = {\n" + "\n".join(entries) + "\n}"]) + "\n"


def main(argv=None, target=TARGET) -> int:
    """Rewrite target from the rows, or with --check only compare: 1 when
    it differs from what the rows generate, else 0."""
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print("usage: python -m halg._codegen [--check]", file=sys.stderr)
        return 2
    text = source()
    stale = not target.exists() or target.read_text() != text
    if argv:
        if stale:
            print(f"{target} is stale: run python -m halg._codegen", file=sys.stderr)
        return int(stale)
    if stale:
        target.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
