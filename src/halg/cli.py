"""Command line front end.

Docs travel as single-line JSON, one per line, so subcommands compose over
pipes: `halg search ... | halg construct yau-twist - | halg check -`.

Every subcommand streams: it parses one doc, decides or transforms it,
writes the result and flushes stdout before it reads the next line, and
search writes each hit as the search makes it.  So each stage of a pipe
starts on the first doc while the stage before it still runs, and `--limit`
or a reader that leaves (`| head -1`) ends a search early.  An error raised
on a doc prints its error: line, and its witness report when it has one, in
check, diagram and construct alike, before the rest of the input is read.
After a failed or raised doc that rest is still read and parsed, so a
malformed doc anywhere is a usage error; the output for the docs before it
has already been written.  `-o FILE` writes only once every doc exists.

Exit codes: 0 success, 1 usage or malformed input, stdout closed by its
reader, or an output scalar too long to write, 2 a failed check or an unmet construction precondition (the witness
report is printed when one exists), 3 a construction whose output re-check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions
from .axioms import check_side_conditions, check_structure
from .constructions import verify_diagram
from .errors import (BudgetExceededError, DocSyntaxError, HalgError, ParamError,
                     require_int)
from .linalg import LinearMap, read_array
from .search import (DEFAULT_BUDGET, TARGET_RB_FAMILY, TARGETS, SearchSpec,
                     catalog, check_sample_size, fixture_names, sample_hits,
                     search_hits)
# not called here: bound so that a wrapper set on halg.cli.enumerate_docs,
# as perfbench/tracing.py sets one, still finds the name
from .search import enumerate_docs  # noqa: F401
from .structures import (parse_doc, report_to_jsonable, serialize_doc)


def _read_docs(path: str):
    """The docs at path, each parsed as it is asked for.  A file is read in
    one go, so that -o may name it; stdin is read a line at a time, so that
    a doc is handled as soon as its line arrives."""
    if path == "-":
        lines = (line.rstrip(b"\n") for line in sys.stdin.buffer)
    else:
        try:
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except OSError as e:
            raise DocSyntaxError(f"cannot read {path}: {e}") from None
    found = False
    for line in lines:
        if line.strip():
            found = True
            yield parse_doc(line)
    if not found:
        raise DocSyntaxError(f"no docs found in {path}")


def _each_doc(path: str, handle) -> int:
    """Run handle(doc) on each doc at path in turn and return 0, or the
    first nonzero code it returns.  A HalgError raised on a doc prints its
    error: line, and its report when it has one, and ends the run with the
    error's exit code.  Either way the rest of the input is then drained."""
    docs = _read_docs(path)
    code = 0
    for doc in docs:
        try:
            code = handle(doc)
        except HalgError as e:
            print(f"error: {e}", file=sys.stderr)
            if getattr(e, "report", None) is not None:
                _emit_report(e.report, doc.field)
            code = e.exit_code
        if code:
            break
    # parse the rest of the input, so that a malformed doc anywhere in it
    # is still a usage error
    for _ in docs:
        pass
    return code


def _emit_doc(doc, out) -> None:
    out.write(serialize_doc(doc).decode("utf-8") + "\n")


def _print_doc(doc) -> None:
    _emit_doc(doc, sys.stdout)
    sys.stdout.flush()


def _emit_report(report, field) -> None:
    payload = report_to_jsonable(report, field)
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def _to_stdout(path) -> bool:
    return path is None or path == "-"


def _write_file(path: str, docs) -> None:
    """Write docs to the file at path.  Callers pass every doc already made,
    and each is serialized before the file is opened, so a failed command
    leaves the file untouched even when it is an input."""
    text = "".join(serialize_doc(doc).decode("utf-8") + "\n" for doc in docs)
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
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
        except ValueError:
            # an integer literal longer than sys.get_int_max_str_digits()
            raise ParamError(f"param {key!r} holds an integer literal too long "
                             "to read") from None
        except RecursionError:
            raise ParamError(f"param {key!r} is nested too deeply") from None
    return params


def _twist(required: bool):
    """The reader of --param twist; unless required, a doc's stored candidate
    twist stands in for it."""
    def read(doc, params):
        if "twist" in params:
            rows = read_array(params.pop("twist"), 2, "twist", doc.field.parse_scalar)
            return LinearMap.from_rows(doc.field, rows, path="twist")
        if not required and doc.twist is not None:
            return doc.twist
        raise ParamError("this recipe needs --param twist=[[...],...]"
                         + ("" if required else " or a doc with a stored candidate twist"))
    return read


def _int(name: str, default=None):
    """The reader of --param name=<int>, required unless it has a default."""
    def read(doc, params):
        if name not in params:
            if default is None:
                raise ParamError(f"this recipe needs --param {name}=<int>")
            return default
        value = params.pop(name)
        require_int(value, name)
        return value
    return read


def _coeffs(doc, params):
    """The reader of --param coeffs={"label":scalar,...}."""
    raw = params.pop("coeffs", None)
    if not isinstance(raw, dict):
        raise ParamError('collapse needs --param coeffs={"label":scalar,...}')
    return {lab: doc.field.parse_scalar(v, f"coeffs.{lab}") for lab, v in raw.items()}


# recipe -> (its function in halg.constructions, a reader per argument after
# the doc, in the order the function takes them)
_RECIPES = {
    "yau-twist": ("yau_twist", (_twist(required=False),)),
    "untwist": ("untwist", ()),
    "derived": ("derived_algebra", (_int("n"), _int("variant", default=1))),
    "centroid-twist": ("centroid_twist",
                       (_twist(required=False), _int("variant", default=1))),
    "commutator": ("commutator", ()),
    "prelie-commutator": ("prelie_commutator", ()),
    "collapse": ("collapse_family", (_coeffs,)),
    "dendriform-twist": ("dendriform_twist", (_twist(required=True),)),
    "dendriform-sum": ("dendriform_sum", ()),
    "dendriform-to-prelie": ("dendriform_to_prelie", ()),
    "rb-to-dendriform": ("rb_to_dendriform", ()),
    "rb-to-tridendriform": ("rb_to_tridendriform", ()),
    "rb-to-prelie": ("rb_to_prelie", ()),
}


def _run_recipe(recipe: str, doc, params: dict):
    """Read recipe's arguments from params in order, refuse any left over,
    and apply its construction.  The construction is looked up when it runs,
    so a wrapper set on halg.constructions sees the call."""
    name, readers = _RECIPES[recipe]
    args = [read(doc, params) for read in readers]
    if params:
        raise ParamError(f"unknown params: {', '.join(sorted(params))}")
    return getattr(constructions, name)(doc, *args)


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

    def handle(doc):
        report = check_structure(doc, verbose=args.verbose, axiom_toggles=toggles)
        if args.verbose and doc.twist is not None:
            tags = ["multiplicative"] + (["commutes"] if doc.operators else [])
            side = check_side_conditions(doc, tags)
            state = "pass" if side.passed else "fail"
            print(f"info: twist {'/'.join(tags)}: {state}", file=sys.stderr)
        _emit_report(report, doc.field)
        return 0 if report.passed else 2
    return _each_doc(args.path, handle)


def _cmd_construct(args) -> int:
    params = _parse_param_list(args.param)
    made = []

    def handle(doc):
        result = _run_recipe(args.recipe, doc, dict(params))
        if _to_stdout(args.out):
            _print_doc(result)
        else:
            made.append(result)
        return 0
    code = _each_doc(args.path, handle)
    if code == 0 and not _to_stdout(args.out):
        _write_file(args.out, made)
    return code


def _cmd_search(args) -> int:
    if (args.fixture is None) == (args.base is None):
        raise ParamError("search needs exactly one of --fixture or --base")
    if args.fixture is not None:
        base = catalog(args.fixture)
    else:
        docs = list(_read_docs(args.base))
        if len(docs) != 1:
            raise ParamError("search takes a single base doc")
        base = docs[0]
    omega, weights = args.omega, ()
    if args.weights is not None:
        weights = tuple(base.field.parse_scalar(tok.strip(), f"weights[{i}]")
                        for i, tok in enumerate(args.weights.split(",")))
    if args.target == TARGET_RB_FAMILY:
        if omega is None:
            omega = len(base.labels)
        if args.weights is None:
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
    if (args.seed is None) != (args.count is None):
        raise ParamError("--seed and --count go together")
    sampled = args.seed is not None
    hits = (sample_hits(spec, args.seed, args.count) if sampled
            else search_hits(spec))
    if _to_stdout(args.out):
        found = 0
        for doc in hits:
            _print_doc(doc)
            found += 1
    else:
        made = tuple(hits)
        _write_file(args.out, made)
        found = len(made)
    truncated = hits.truncated
    if truncated:
        if sampled:
            print(f"note: only {found} of {args.count} samples found",
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
    def handle(doc):
        report = verify_diagram(doc)
        _emit_report(report, doc.field)
        return 0 if report.passed else 2
    return _each_doc(args.path, handle)


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
