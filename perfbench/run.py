#!/usr/bin/env python3
"""Benchmark for halg: the closure, search and pipe workloads.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 8 --trace 0

Run from anywhere; the halg sources measured are the ``src`` directory next
to this one.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  The lines before it
name each metric with its unit and, for the per-layer metrics, the
end-to-end metric each one should move.  All load comes from this one
process with no extra threads, pinned with the CLI processes it starts to
one CPU, and end-to-end timings are scaled to a reference speed measured on
that CPU (see measure.SpeedGauge).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "first_out_ms": "ms",
    "peak_rss_mb": "MB",
}

_PIPE_IO = "ops_per_s and first_out_ms on pipe"
_CLI = "first_out_ms on pipe and search"


def _per_layer_table():
    """[(metric, unit, the end-to-end metric it should move)]."""
    t = []
    for span in ("structures.parse_doc", "structures.serialize_doc",
                 "fields.parse_scalar"):
        t += [(span + ".calls", "count", _PIPE_IO), (span + ".self_s", "s", _PIPE_IO)]
    t += [("structures.make_doc.calls", "count", "ops_per_s on search"),
          ("structures.make_doc.self_s", "s", "ops_per_s on search")]
    check = "ops_per_s and op_p50_ms on closure, ops_per_s on pipe"
    t += [("axioms.check_structure.calls", "count", check),
          ("axioms.check_structure.self_s", "s", check),
          ("axioms.check_structure.instances", "count", check),
          ("axioms.check_structure.violations", "count", check)]
    for span, moves in (("axioms.structure_ok", "ops_per_s on search"),
                        ("axioms.check_side_conditions",
                         "ops_per_s on search and closure")):
        t += [(span + ".calls", "count", moves), (span + ".self_s", "s", moves),
              (span + ".pass_ratio", "ratio", moves)]
    tail = "op_tail_ms on closure"
    t += [("axioms.check_morphism.calls", "count", tail),
          ("axioms.check_morphism.self_s", "s", tail)]
    for fn in tracing.CONSTRUCTIONS:
        span = "constructions." + fn
        t += [(span + ".calls", "count", tail), (span + ".self_s", "s", tail),
              (span + ".applied_ratio", "ratio", tail)]
    search = "ops_per_s and peak_rss_mb on search"
    t += [("search.enumerate_docs.self_s", "s", search),
          ("search.checks", "count", search), ("search.hits", "count", search),
          ("search.hit_ratio", "ratio", search),
          ("linalg.from_rows.calls", "count", "ops_per_s on search"),
          ("linalg.from_rows.self_s", "s", "ops_per_s on search"),
          ("linalg.tensor_ops.self_s", "s", "ops_per_s on closure"),
          ("cli.start_ms", "ms", _CLI), ("cli.import_ms", "ms", _CLI),
          ("cli.main.self_s", "s", _CLI)]
    for stage in ("check", "construct", "check_piped", "search"):
        t.append((f"cli.stage.{stage}.wall_s", "s", _CLI))
    t.append(("trace.overhead_ratio", "ratio", "nothing: the cost of tracing"))
    return t


PER_LAYER = _per_layer_table()


def per_layer_values(res, cli_start_ms, cli_import_ms):
    """Every PER_LAYER metric from a traced run's spans and counters."""
    summary = res.tracer.summary()
    counts = res.tracer.counts

    def calls(span):
        return summary.get(span, (0, 0.0, 0.0))[0]

    def self_s(span):
        return summary.get(span, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    v = {}
    for span in ("structures.parse_doc", "structures.serialize_doc",
                 "fields.parse_scalar", "structures.make_doc",
                 "axioms.check_structure", "axioms.structure_ok",
                 "axioms.check_side_conditions", "axioms.check_morphism",
                 "linalg.from_rows", "cli.main", "search.enumerate_docs"):
        v[span + ".calls"] = calls(span)
        v[span + ".self_s"] = self_s(span)
    for span in ("axioms.structure_ok", "axioms.check_side_conditions"):
        v[span + ".pass_ratio"] = ratio(counts.get(span + ".passed", 0), calls(span))
    v["axioms.check_structure.instances"] = counts.get("axioms.check_structure.instances", 0)
    v["axioms.check_structure.violations"] = counts.get("axioms.check_structure.violations", 0)
    for fn in tracing.CONSTRUCTIONS:
        span = "constructions." + fn
        v[span + ".calls"] = calls(span)
        v[span + ".self_s"] = self_s(span)
        v[span + ".applied_ratio"] = ratio(
            calls(span) - counts.get(span + ".raised", 0), calls(span))
    v["search.checks"] = counts.get("search.checks", 0)
    v["search.hits"] = counts.get("search.hits", 0)
    v["search.hit_ratio"] = ratio(v["search.hits"], v["search.checks"])
    v["linalg.tensor_ops.self_s"] = sum(self_s("linalg." + fn) for fn in tracing.TENSOR_OPS)
    v["cli.start_ms"] = cli_start_ms
    v["cli.import_ms"] = cli_import_ms
    for stage in ("check", "construct", "check_piped", "search"):
        v[f"cli.stage.{stage}.wall_s"] = res.stage_walls.get(stage, 0.0)
    v["trace.overhead_ratio"] = res.metrics["trace.overhead_ratio"]
    return v


def _layer_shares(tracer):
    """Share of traced self time per layer, largest first."""
    by_layer = {}
    for span, (_, own, _) in tracer.summary().items():
        layer = span.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    total = sum(by_layer.values()) or 1.0
    return sorted(((own / total, layer) for layer, own in by_layer.items()), reverse=True)


def _revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("closure", "search", "pipe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "halg", "__init__.py")):
        print(f"error: no halg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    import workloads

    nproc = _nproc()
    cpu = measure.pin_to_one_cpu()
    print(f"env: python {platform.python_version()}, nproc {nproc}, "
          f"pinned to CPU {cpu}, revision {_revision()}, loadavg {os.getloadavg()}, "
          f"HALG_THREADS={os.environ.get('HALG_THREADS', 'unset')}")
    cli = measure.Cli(SRC)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ctx = workloads.Ctx(args.seed, args.seconds, workdir, cli, _nproc(),
                            measure.SpeedGauge())
        res = workloads.WORKLOADS[args.workload](ctx, trace=bool(args.trace))
        if args.trace:
            starts = [cli.run("catalog", "N2-Pnil-w0") for _ in range(workloads.PROBE_REPEATS)]
            if any(code != 0 for code, *_ in starts):
                res.fail("halg catalog N2-Pnil-w0 exited nonzero")
            start = measure.median([wall for *_, wall in starts])
            imp = measure.median([cli.import_seconds("halg.cli")
                                  for _ in range(workloads.PROBE_REPEATS)])
            values = per_layer_values(res, start * 1e3, imp * 1e3)
            table = [(name, unit, values[name], moves) for name, unit, moves in PER_LAYER]
        else:
            table = [(name, unit, res.metrics[name], None)
                     for name, unit in END_TO_END.items()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in res.notes:
        print(note)
    for problem in res.problems:
        print("FAILED:", problem)
    print(f"fail_ratio = {res.failed}/{res.attempted} = {res.failed / res.attempted:.6f}")
    if args.trace:
        shares = ", ".join(f"{layer} {share:.1%}" for share, layer in _layer_shares(res.tracer))
        print(f"self-time split: {shares}")
    for name, unit, value, moves in table:
        print(f"{name} = {value:.6g} {unit}" + (f"  (should move {moves})" if moves else ""))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
