"""Command line front end.

Docs travel as single-line JSON, one per line, so subcommands compose over
pipes: `halg search ... | halg construct yau-twist - | halg check -`.

Exit codes: 0 success, 1 usage or malformed input, or stdout closed by its
reader, 2 a failed check or an unmet construction precondition (the witness
report is printed when one exists), 3 a construction whose output re-check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .axioms import check_side_conditions, check_structure
from .constructions import (centroid_twist, collapse_family, commutator,
                            dendriform_sum, dendriform_to_prelie,
                            dendriform_twist, derived_algebra,
                            prelie_commutator, rb_to_dendriform, rb_to_prelie,
                            rb_to_tridendriform, untwist, verify_diagram,
                            yau_twist)
from .errors import BudgetExceededError, DocSyntaxError, HalgError, ParamError
from .linalg import LinearMap
from .search import (DEFAULT_BUDGET, TARGET_RB_FAMILY, TARGETS, SearchSpec,
                     catalog, check_sample_size, enumerate_docs, fixture_names,
                     seeded_sample)
from .structures import (parse_doc, report_to_jsonable, serialize_doc)


def _read_docs(path: str):
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise DocSyntaxError(f"cannot read {path}: {e}") from None
    docs = [parse_doc(line) for line in data.split(b"\n") if line.strip()]
    if not docs:
        raise DocSyntaxError(f"no docs found in {path}")
    return docs


def _emit_doc(doc, out) -> None:
    out.write(serialize_doc(doc).decode("utf-8") + "\n")


def _emit_report(report, field) -> None:
    payload = report_to_jsonable(report, field)
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _to_stdout(path) -> bool:
    return path is None or path == "-"


def _write_file(path: str, docs) -> None:
    """Write docs to the file at path.  Callers pass every doc already made,
    so a failed command leaves the file untouched even when it is an input."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            for doc in docs:
                _emit_doc(doc, out)
    except OSError as e:
        raise ParamError(f"cannot write {path}: {e.strerror}") from None


def _parse_param_list(pairs) -> dict:
    params = {}
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ParamError(f"params look like key=value, got {item!r}")
        if key in params:
            raise ParamError(f"duplicate param {key!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
        except RecursionError:
            raise ParamError(f"param {key!r} is nested too deeply") from None
    return params


def _no_leftovers(params) -> None:
    if params:
        raise ParamError(f"unknown params: {', '.join(sorted(params))}")


def _matrix_param(doc, value, name: str) -> LinearMap:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ParamError(f"{name} must be a JSON matrix (list of rows)")
    rows = [[doc.field.parse_scalar(v, name) for v in row] for row in value]
    return LinearMap.from_rows(doc.field, rows, path=name)


def _twist_param(doc, params, required: bool) -> LinearMap:
    if "twist" in params:
        return _matrix_param(doc, params.pop("twist"), "twist")
    if not required and doc.twist is not None:
        return doc.twist
    raise ParamError("this recipe needs --param twist=[[...],...]"
                     + ("" if required else " or a doc with a stored candidate twist"))


def _int_param(params, name: str, default=None):
    if name not in params:
        if default is None:
            raise ParamError(f"this recipe needs --param {name}=<int>")
        return default
    value = params.pop(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParamError(f"{name} must be an integer, got {value!r}")
    return value


def _r_yau(doc, params):
    p = _twist_param(doc, params, required=False)
    _no_leftovers(params)
    return yau_twist(doc, p)


def _r_derived(doc, params):
    n = _int_param(params, "n")
    variant = _int_param(params, "variant", default=1)
    _no_leftovers(params)
    return derived_algebra(doc, n, variant)


def _r_centroid(doc, params):
    p = _twist_param(doc, params, required=False)
    variant = _int_param(params, "variant", default=1)
    _no_leftovers(params)
    return centroid_twist(doc, p, variant)


def _r_collapse(doc, params):
    raw = params.pop("coeffs", None)
    if not isinstance(raw, dict):
        raise ParamError('collapse needs --param coeffs={"label":scalar,...}')
    coeffs = {lab: doc.field.parse_scalar(v, f"coeffs.{lab}")
              for lab, v in raw.items()}
    _no_leftovers(params)
    return collapse_family(doc, coeffs)


def _r_dendriform_twist(doc, params):
    p = _twist_param(doc, params, required=True)
    _no_leftovers(params)
    return dendriform_twist(doc, p)


def _r_simple(fn):
    """A recipe that takes no params.  It looks fn up by name when it runs,
    so a wrapper set on this module's attribute sees the call."""
    name = fn.__name__

    def run(doc, params):
        _no_leftovers(params)
        return globals()[name](doc)
    return run


_RECIPES = {
    "yau-twist": _r_yau,
    "untwist": _r_simple(untwist),
    "derived": _r_derived,
    "centroid-twist": _r_centroid,
    "commutator": _r_simple(commutator),
    "prelie-commutator": _r_simple(prelie_commutator),
    "collapse": _r_collapse,
    "dendriform-twist": _r_dendriform_twist,
    "dendriform-sum": _r_simple(dendriform_sum),
    "dendriform-to-prelie": _r_simple(dendriform_to_prelie),
    "rb-to-dendriform": _r_simple(rb_to_dendriform),
    "rb-to-tridendriform": _r_simple(rb_to_tridendriform),
    "rb-to-prelie": _r_simple(rb_to_prelie),
}


def _parse_toggles(pairs) -> dict:
    toggles = {}
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        if not sep or raw not in ("on", "off"):
            raise ParamError(f"toggles look like name=on|off, got {item!r}")
        toggles[key] = raw == "on"
    return toggles


def _cmd_check(args) -> int:
    toggles = _parse_toggles(args.axiom_toggle)
    for doc in _read_docs(args.path):
        report = check_structure(doc, verbose=args.verbose, axiom_toggles=toggles)
        if args.verbose and doc.twist is not None:
            tags = ["multiplicative"] + (["commutes"] if doc.operators else [])
            side = check_side_conditions(doc, tags)
            state = "pass" if side.passed else "fail"
            print(f"info: twist {'/'.join(tags)}: {state}", file=sys.stderr)
        _emit_report(report, doc.field)
        if not report.passed:
            return 2
    return 0


def _cmd_construct(args) -> int:
    recipe = _RECIPES[args.recipe]
    params = _parse_param_list(args.param)
    made = []
    for doc in _read_docs(args.path):
        try:
            result = recipe(doc, dict(params))
        except HalgError as e:
            print(f"error: {e}", file=sys.stderr)
            if getattr(e, "report", None) is not None:
                _emit_report(e.report, doc.field)
            return e.exit_code
        if _to_stdout(args.out):
            _emit_doc(result, sys.stdout)
        else:
            made.append(result)
    if not _to_stdout(args.out):
        _write_file(args.out, made)
    return 0


def _cmd_search(args) -> int:
    if (args.fixture is None) == (args.base is None):
        raise ParamError("search needs exactly one of --fixture or --base")
    if args.fixture is not None:
        base = catalog(args.fixture)
    else:
        docs = _read_docs(args.base)
        if len(docs) != 1:
            raise ParamError("search takes a single base doc")
        base = docs[0]
    field = base.field
    if args.target == TARGET_RB_FAMILY:
        omega = args.omega if args.omega is not None else len(base.labels)
        if args.weights is not None:
            weights = tuple(field.parse_scalar(tok.strip(), "weights")
                            for tok in args.weights.split(","))
        else:
            # refuse a huge label count before making a weight per label
            if args.seed is not None:
                check_sample_size(base.dim, omega)
            elif omega >= args.budget.bit_length():
                # the p^(dim^2 omega) >= 2^omega candidates exceed the budget
                raise BudgetExceededError(
                    f"{omega} labels exceed the budget {args.budget}")
            weights = (0,) * max(omega, 0)
        spec = SearchSpec(base, args.target, omega_size=omega, weights=weights,
                          limit=args.limit, budget=args.budget)
    else:
        weights = ()
        if args.weights is not None:
            weights = tuple(field.parse_scalar(tok.strip(), "weights")
                            for tok in args.weights.split(","))
        spec = SearchSpec(base, args.target, omega_size=args.omega,
                          weights=weights, limit=args.limit, budget=args.budget)
    if (args.seed is None) != (args.count is None):
        raise ParamError("--seed and --count go together")
    if args.seed is not None:
        result = seeded_sample(spec, args.seed, args.count)
    else:
        result = enumerate_docs(spec)
    if _to_stdout(args.out):
        for doc in result.docs:
            _emit_doc(doc, sys.stdout)
    else:
        _write_file(args.out, result.docs)
    if result.truncated:
        if args.seed is not None:
            print(f"note: only {len(result.docs)} of {args.count} samples found",
                  file=sys.stderr)
        else:
            print(f"note: stopped at the {args.limit}-doc limit "
                  "with candidates left", file=sys.stderr)
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        for name in fixture_names():
            print(name)
        return 0
    _emit_doc(catalog(args.name), sys.stdout)
    return 0


def _cmd_diagram(args) -> int:
    for doc in _read_docs(args.path):
        report = verify_diagram(doc)
        _emit_report(report, doc.field)
        if not report.passed:
            return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: exit 1 with an
    error: line, as for every other malformed argument.  --help still
    exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParamError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halg",
        description="Exact checks, constructions, and searches for matching "
                    "Hom-algebraic structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a doc's structure axioms")
    p.add_argument("path", nargs="?", default="-",
                   help="doc file, one JSON doc per line, or - for stdin")
    p.add_argument("--verbose", action="store_true",
                   help="also check informational identities and report "
                        "twist side conditions on stderr")
    p.add_argument("--axiom-toggle", action="append", metavar="NAME=on|off",
                   help="override an axiom variant toggle")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("construct", help="apply a construction to each doc")
    p.add_argument("recipe", choices=sorted(_RECIPES))
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="recipe parameter; VALUE is parsed as JSON when possible")
    p.add_argument("-o", "--out", default=None, help="write docs here instead of stdout")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("search", help="enumerate or sample structures")
    p.add_argument("--target", required=True, choices=TARGETS)
    p.add_argument("--fixture", default=None, help="catalog fixture name as base")
    p.add_argument("--base", default=None, help="base doc file or - for stdin")
    p.add_argument("--omega", type=int, default=None,
                   help="label count for the searched family")
    p.add_argument("--weights", default=None,
                   help="comma-separated weights, one per label")
    p.add_argument("--limit", type=int, default=None, help="stop after this many hits")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="refuse candidate spaces larger than this")
    p.add_argument("--seed", type=int, default=None, help="sample instead of enumerate")
    p.add_argument("--count", type=int, default=None, help="samples to draw")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("catalog", help="list fixtures, or print one")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("diagram", help="check the splitting/antisymmetrizing square")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(fn=_cmd_diagram)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except HalgError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except BrokenPipeError:
        # The reader went away (`| head`).  Point stdout at devnull, so that
        # the flush at exit has nowhere to fail, and end quietly.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # not backed by a file descriptor
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
