"""The closure, search and pipe workloads.

Each workload sets up its inputs, runs a closed loop with one client for the
requested seconds, checks what the program returned, and fills a `Result`.
With tracing on, the same operations run twice in process, untraced and
then traced, and the per-layer split comes from the traced pass.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import halg.cli
import halg.search
from halg import (AlgebraDoc, CheckReport, rb_to_dendriform,
                  rb_to_tridendriform, serialize_doc, structure_ok)
from halg.errors import (MissingCoefficientError, NonzeroWeightError,
                         ParamError, PowerBoundError, PreconditionFailed)

import inputs
import measure
import oracle
import tracing

# The refusals criterion 2 allows; anything else a construction raises fails.
REFUSALS = (PreconditionFailed, NonzeroWeightError, ParamError,
            MissingCoefficientError, PowerBoundError)
PASS_LINE = b'{"verdict":"pass","violations":[]}\n'
SETUP_REPEATS = 7
PROBE_REPEATS = 5
# Each workload repeats a fixed set of operations in whole passes, and the
# latency statistics take one median per operation over the passes.  The
# sample count is then the same on every run and on every commit, so the
# tail rule always picks the same percentile.
CHAIN_DOCS = 50      # applied base outputs whose batteries form the chained level
_SIDE_AXIOMS = {"endomorphism", "multiplicative", "commutes", "centroid",
                "invertible", "twist-intertwine"}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    tracer: tracing.Tracer | None = None   # set by a traced run
    stage_walls: dict = field(default_factory=dict)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class Ctx:
    seed: int
    seconds: float
    workdir: str
    cli: measure.Cli
    nproc: int             # CPUs the benchmark and its CLI processes run on
    gauge: measure.SpeedGauge


def _digest(docs) -> str:
    h = hashlib.sha256()
    for d in docs:
        h.update(serialize_doc(d) + b"\n")
    return h.hexdigest()


def _write_docs(path, docs) -> None:
    with open(path, "wb") as fh:
        for d in docs:
            fh.write(serialize_doc(d) + b"\n")


def _timed_setup(ctx: Ctx, res: Result, generate):
    """Median over SETUP_REPEATS of (fresh-interpreter import of halg +
    in-process input generation), each scaled to the reference speed by the
    gauge samples just before and after it, since the machine's speed can
    move by half between one set-up and the next; returns (seconds, last
    inputs)."""
    raw, totals = [], []
    made = None
    ctx.gauge.sample(2)
    for _ in range(SETUP_REPEATS):
        around = ctx.gauge.samples[-2:]
        imp = ctx.cli.import_seconds("halg")
        t0 = time.perf_counter()
        made = generate()
        raw.append(imp + time.perf_counter() - t0)
        ctx.gauge.sample(2)
        around += ctx.gauge.samples[-2:]
        totals.append(raw[-1] * measure.REFERENCE_S / measure.median(around))
    res.notes.append(f"setup_s: median of {SETUP_REPEATS} set-ups, each scaled by the "
                     f"gauge samples around it; as measured {measure.median(raw):.6g} s")
    return measure.median(totals), made


def _settle():
    """Collect, then move everything alive (the generated inputs) out of the
    collector's reach, so its pauses in the timed phase scale with what the
    program allocates rather than with the size of the benchmark's inputs."""
    gc.collect()
    gc.freeze()


def _passes(ctx: Ctx, run_pass):
    """Whole passes of the same work until ctx.seconds have gone by; each
    pass returns its per-operation latencies in a fixed order."""
    _settle()
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < ctx.seconds:
        passes.append(run_pass(not passes))
    return passes


def _speed_note(ctx: Ctx, res: Result) -> None:
    g = ctx.gauge
    res.notes.append(
        f"speed: {len(g.samples)} reference samples, median "
        f"{measure.median(g.samples) * 1e3:.3f} ms (the reference speed is "
        f"{measure.REFERENCE_S * 1e3:g} ms); timings are scaled sample by sample, "
        f"by {g.factor():.4f} over the whole run")


def _per_op_medians(passes):
    return [measure.median(col) for col in zip(*passes)]


def _latency_metrics(res: Result, samples_s, label: str) -> None:
    """op_p50_ms and op_tail_ms from one median latency per operation."""
    ms = [s * 1e3 for s in samples_s]
    q, tail_ms = measure.tail(ms)
    res.metrics["op_p50_ms"] = measure.median(ms)
    res.metrics["op_tail_ms"] = tail_ms
    res.notes.append(f"op_p50_ms, op_tail_ms: {label}; n={len(ms)}, "
                     f"op_tail_ms is p{q:g}")


class _Probe:
    """PROBE_REPEATS CLI runs timed to their first stdout line, spread over
    the timed phase: one whenever ctx.seconds / PROBE_REPEATS have gone by
    since the last, so that the median covers the whole run, and the rest
    at the end."""

    def __init__(self, ctx: Ctx, res: Result, argv, output_ok):
        self.ctx, self.res, self.argv, self.output_ok = ctx, res, argv, output_ok
        self.every = ctx.seconds / PROBE_REPEATS
        self.last = time.perf_counter()
        self.firsts = []

    def maybe(self) -> None:
        if (len(self.firsts) < PROBE_REPEATS
                and time.perf_counter() - self.last >= self.every):
            self.run_one()

    def run_one(self) -> None:
        self.ctx.gauge.sample(2)
        code, out, t_first, _ = self.ctx.cli.run(*self.argv)
        self.ctx.gauge.sample(2)   # the run is scaled by the samples around it
        self.res.attempted += 1
        if code != 0 or not self.output_ok(out):
            self.res.fail(f"{' '.join(self.argv[:2])}: exit {code} or unexpected output")
        self.firsts.append(t_first * self.ctx.gauge.now())
        self.last = time.perf_counter()

    def median_ms(self) -> float:
        while len(self.firsts) < PROBE_REPEATS:
            self.run_one()
        shown = " ".join(os.path.basename(a) for a in self.argv)
        self.res.notes.append(f"first_out_ms: median of {len(self.firsts)} runs of {shown}")
        return measure.median(self.firsts) * 1e3


def _run_main(argv, stdin_bytes=b""):
    """halg.cli.main(argv) in process with stdin and stdout redirected."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = halg.cli.main(argv)
        out = sys.stdout.getvalue().encode("utf-8")
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out


def _stage(res, argv, stdin_bytes=b""):
    """Wall seconds of one in-process CLI stage that must exit 0."""
    t0 = time.perf_counter()
    code, _ = _run_main(argv, stdin_bytes)
    wall = time.perf_counter() - t0
    res.attempted += 1
    if code != 0:
        res.fail(f"in-process {argv[0]} exit {code}")
    return wall


def _trace_phase(res: Result, run_once) -> None:
    """run_once(tracer) runs the workload's operations once and returns the
    seconds they took; tracer is None for an untraced run.  It runs
    untraced, traced with every layer wrapped, then untraced again, and the
    overhead compares the traced run with the mean of the two around it,
    which cancels a steady drift in machine speed."""
    _settle()
    before = run_once(None)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.halg_targets(tracer)):
        traced = run_once(tracer)
    after = run_once(None)
    res.tracer = tracer
    res.metrics["trace.overhead_ratio"] = traced / ((before + after) / 2) - 1


# --- closure ----------------------------------------------------------------


def _closure_inputs(seed):
    pool = inputs.closure_pool(seed)
    attempts = [(recipe, doc, thunk) for doc in pool
                for recipe, thunk in inputs.battery(doc)]
    random.Random(seed).shuffle(attempts)
    return pool, attempts


class _Battery:
    """One pass is every base attempt over the pool, then the batteries of
    CHAIN_DOCS applied base outputs as one chained level.  The first pass
    fixes the list of attempts; later passes rerun exactly that list, so
    every pass does the same work."""

    def __init__(self, attempts, seed):
        self.ops = list(attempts)
        self.rng = random.Random(seed ^ 0x5EED)
        self.outcomes = Counter()
        self.applied_base = []
        self.outputs = []      # sampled outputs, re-decided by the oracle
        self.refused = []      # sampled inputs refused by their own check

    def run_pass(self, res: Result, first: bool, tracer=None, probe=None,
                 gauge=None):
        """Latency in seconds of every attempt of one pass, in list order."""
        n_base = len(self.ops) if first else None
        latencies = []
        i = 0
        while i < len(self.ops):
            recipe, doc, thunk = self.ops[i]
            span = tracer.begin("bench.op") if tracer else None
            t0 = time.perf_counter_ns()
            out = exc = None
            try:
                out = thunk()
            except REFUSALS as e:
                exc = e
            except Exception as e:  # any other exception is a failed op
                exc = e
            dt = time.perf_counter_ns() - t0
            if tracer:
                tracer.end(span)
            latencies.append(dt / 1e9 * (gauge.now() if gauge else 1.0))
            self._classify(res, recipe, doc, out, exc, first)
            if first and i < n_base and isinstance(out, AlgebraDoc):
                self.applied_base.append(out)
            if first and i == n_base - 1:
                self._chain()
            if probe:
                probe.maybe()
            if gauge:
                gauge.maybe()
            i += 1
        res.attempted += len(latencies)
        return latencies

    def _chain(self):
        """The chained docs are spread evenly over the applied base outputs
        in order of the cost of their check, so the chained level's work
        hardly moves with the seed: a doc's cost varies a hundredfold with
        its kind, dim and |Omega|, and a seeded pick of 50 would move the
        work of a pass by up to a tenth."""
        outs = sorted(self.applied_base, key=lambda d: (
            tracing.axiom_instances(d.kind, len(d.labels), d.dim), d.kind))
        n, k = len(outs), min(CHAIN_DOCS, len(outs))
        for j in range(k):
            out = outs[(2 * j + 1) * n // (2 * k)]
            self.ops.extend((r, out, th) for r, th in inputs.battery(out))
        self.applied_base = []

    def _classify(self, res, recipe, doc, out, exc, first):
        if isinstance(out, AlgebraDoc):
            self.outcomes["applied"] += first
            if first and self.rng.random() < 0.004 and len(self.outputs) < 12:
                self.outputs.append((recipe, out))
        elif isinstance(out, CheckReport):
            self.outcomes["applied"] += first
            if not out.passed:
                res.fail(f"{recipe}: diagram fails on a weight-0 family")
        elif isinstance(exc, REFUSALS):
            self.outcomes["refused"] += first
            report = getattr(exc, "report", None)
            if (first and report is not None
                    and report.violations[0].axiom not in _SIDE_AXIOMS
                    and not report.violations[0].axiom.startswith("morphism-")
                    and self.rng.random() < 0.05 and len(self.refused) < 6):
                self.refused.append((recipe, doc))
        else:
            self.outcomes["failed"] += first
            res.fail(f"{recipe}: {type(exc).__name__}: {exc}")


def _closure_probe_docs(pool):
    """30 assoc RB docs of the pool that rb-to-tridendriform accepts."""
    docs = [d for d in pool if d.kind == "plain-assoc-matching-rb" and structure_ok(d)]
    return docs[::max(1, len(docs) // 30)][:30]


def closure(ctx: Ctx, trace: bool) -> Result:
    res = Result()
    setup_s, (pool, attempts) = _timed_setup(ctx, res, lambda: _closure_inputs(ctx.seed))
    probe_docs = _closure_probe_docs(pool)
    probe_path = os.path.join(ctx.workdir, "closure-rb.jsonl")
    _write_docs(probe_path, probe_docs)
    res.notes.append(f"closure: pool of {len(pool)} docs, {len(attempts)} base attempts")

    if trace:
        return _closure_traced(ctx, res, attempts, probe_path)

    expected = b"".join(serialize_doc(rb_to_tridendriform(d)) + b"\n"
                        for d in probe_docs)
    probe = _Probe(ctx, res, ("construct", "rb-to-tridendriform", probe_path),
                   lambda out: out == expected)
    battery = _Battery(attempts, ctx.seed)
    passes = _passes(ctx, lambda first: battery.run_pass(res, first, probe=probe,
                                                         gauge=ctx.gauge))
    res.metrics["setup_s"] = setup_s
    medians = _per_op_medians(passes)
    res.metrics["ops_per_s"] = len(medians) / sum(medians)
    res.notes.append(f"ops_per_s: a pass of {len(medians)} attempts at the median "
                     "cost of each")
    _latency_metrics(res, medians, f"per-attempt medians over {len(passes)} passes")
    res.notes.append(f"closure: {len(passes[0])} attempts a pass, first pass "
                     f"{dict(battery.outcomes)}")
    _closure_oracle(ctx, res, battery)

    res.metrics["first_out_ms"] = probe.median_ms()
    res.metrics["peak_rss_mb"] = max(measure.peak_rss_mb(False), measure.peak_rss_mb(True))
    _speed_note(ctx, res)
    return res


def _closure_oracle(ctx, res, battery):
    for recipe, out in battery.outputs:
        if not oracle.structure_holds(serialize_doc(out), ctx.seed):
            res.fail(f"{recipe}: oracle rejects an emitted doc")
    for recipe, doc in battery.refused:
        if oracle.structure_holds(serialize_doc(doc), ctx.seed):
            res.fail(f"{recipe}: refused an input the oracle accepts")
    res.notes.append(f"oracle: {len(battery.outputs)} outputs and {len(battery.refused)} "
                     "refused inputs re-decided")


def _closure_traced(ctx, res, attempts, probe_path):
    battery = _Battery(attempts, ctx.seed)
    argv = ["construct", "rb-to-tridendriform", probe_path]
    res.stage_walls["construct"] = _stage(res, argv)
    passes = []

    def run_once(tracer):
        passes.append(battery.run_pass(res, not passes, tracer))
        if tracer:
            _stage(res, argv)
        return sum(passes[-1])

    _trace_phase(res, run_once)
    res.notes.append(f"trace: passes of {len(passes[0])} attempts, untraced, "
                     "traced, untraced")
    return res


# --- search -----------------------------------------------------------------

PROBE_SEARCH = ("search", "--target", "rb-family", "--fixture", "N2-F3",
                "--omega", "2", "--weights", "0,0")


def _search_pass(res, requests, first, tracer=None, probe=None, gauge=None):
    """Latencies of one pass, a list per request.  The pass goes through
    the request list up to req.repeats times, so that a request's runs are
    spread over the pass rather than caught in one moment of the machine's
    speed."""
    latencies = [[] for _ in requests]
    for rep in range(max(req.repeats for req in requests)):
        for req, lat in zip(requests, latencies):
            if rep >= req.repeats:
                continue
            hits = None  # free the last result before timing the next request
            span = tracer.begin("bench.op") if tracer else None
            t0 = time.perf_counter()
            try:
                hits = halg.search.enumerate_docs(req.spec)
            except Exception as e:  # a pinned request never raises
                res.fail(f"{req.name}: {type(e).__name__}: {e}")
            dt = time.perf_counter() - t0
            if gauge:
                if dt >= measure.GAUGE_EVERY_S:
                    gauge.sample(2)   # a long request is scaled by the samples around it
                dt *= gauge.now()
            lat.append(dt)
            if tracer:
                tracer.end(span)
            res.attempted += 1
            if probe:
                probe.maybe()
            if gauge:
                gauge.maybe()
            if hits is None:
                continue
            if len(hits) != req.hits:
                res.fail(f"{req.name}: {len(hits)} hits, pinned {req.hits}")
            elif first and rep == 0 and req.digest and _digest(hits) != req.digest:
                res.fail(f"{req.name}: hit stream digest differs from the pin")
    return latencies


def _request_medians(passes, requests):
    """One median per request over all its runs in all passes."""
    return [measure.median([x for p in passes for x in p[i]])
            for i in range(len(requests))]


def search(ctx: Ctx, trace: bool) -> Result:
    res = Result()
    setup_s, requests = _timed_setup(ctx, res, inputs.search_requests)
    c3 = inputs.criterion3_total(requests)
    if c3 != inputs.C3_TOTAL:
        res.fail(f"criterion-3 pins sum to {c3}, not {inputs.C3_TOTAL}")
    res.notes.append(f"search: {len(requests)} fixed requests; the seed is not used")

    if trace:
        return _search_traced(ctx, res, requests)

    pin = next(r for r in requests if r.name == "N2-F3.rb.w00").digest
    probe = _Probe(ctx, res, PROBE_SEARCH,
                   lambda out: hashlib.sha256(out).hexdigest() == pin)
    passes = _passes(ctx, lambda first: _search_pass(res, requests, first, probe=probe,
                                                     gauge=ctx.gauge))
    res.metrics["setup_s"] = setup_s
    medians = _request_medians(passes, requests)
    res.metrics["ops_per_s"] = len(medians) / sum(medians)
    res.notes.append(f"ops_per_s: one run of each of {len(medians)} requests at "
                     "its median cost")
    _latency_metrics(res, medians, f"per-request medians over {len(passes)} passes")
    res.metrics["first_out_ms"] = probe.median_ms()
    res.metrics["peak_rss_mb"] = max(measure.peak_rss_mb(False), measure.peak_rss_mb(True))
    _speed_note(ctx, res)
    return res


def _search_traced(ctx, res, requests):
    once = [replace(r, repeats=1) for r in requests]
    res.stage_walls["search"] = _stage(res, list(PROBE_SEARCH))
    passes = []

    def run_once(tracer):
        passes.append(_search_pass(res, once, not passes, tracer))
        if tracer:
            _stage(res, list(PROBE_SEARCH))
        return sum(map(sum, passes[-1]))

    _trace_phase(res, run_once)
    return res


# --- pipe -------------------------------------------------------------------


def _pipe_inputs(ctx):
    stream, rb = inputs.pipe_stream(ctx.seed)
    paths = (os.path.join(ctx.workdir, "stream.jsonl"),
             os.path.join(ctx.workdir, "rb.jsonl"))
    _write_docs(paths[0], stream)
    _write_docs(paths[1], rb)
    return stream, rb, paths


def pipe(ctx: Ctx, trace: bool) -> Result:
    res = Result()
    setup_s, (stream, rb, (stream_path, rb_path)) = _timed_setup(
        ctx, res, lambda: _pipe_inputs(ctx))
    res.notes.append(f"pipe: {len(stream)} docs, {len(rb)} in the RB subset")

    if trace:
        return _pipe_traced(ctx, res, stream_path, rb_path, len(stream), len(rb))

    concurrent = ctx.nproc >= 2
    firsts, walls = [], []

    def one_round(first):
        # each CLI run is scaled by the two gauge samples before it and the
        # two after it (SpeedGauge.LATEST)
        if first:
            ctx.gauge.sample(2)
        code, out, t_first, wall = ctx.cli.run("check", stream_path)
        ctx.gauge.sample(2)
        f = ctx.gauge.now()
        res.attempted += len(stream)
        if code != 0 or out != PASS_LINE * len(stream):
            res.fail(f"check over the stream: exit {code}", len(stream))
        firsts.append(t_first * f)
        wall *= f
        codes, out, wall2 = ctx.cli.chain(("construct", "rb-to-dendriform", rb_path),
                                          ("check", "-"), concurrent)
        ctx.gauge.sample(2)
        wall2 *= ctx.gauge.now()
        res.attempted += len(rb)
        if codes != (0, 0) or out != PASS_LINE * len(rb):
            res.fail(f"construct | check: exits {codes}", len(rb))
        walls.append(wall + wall2)
        # every doc of a pipeline waits for that pipeline to finish
        return [wall] * len(stream) + [wall2] * len(rb)

    passes = _passes(ctx, one_round)
    res.metrics["setup_s"] = setup_s
    res.metrics["ops_per_s"] = len(passes[0]) / measure.median(walls)
    res.notes.append(f"ops_per_s: {len(passes[0])} docs a round over the median "
                     f"of {len(walls)} round walls")
    _latency_metrics(res, _per_op_medians(passes),
                     f"per-doc pipeline wall, medians over {len(passes)} rounds")
    res.metrics["first_out_ms"] = measure.median(firsts) * 1e3
    res.metrics["peak_rss_mb"] = measure.peak_rss_mb(True)
    res.notes.append(f"first_out_ms: median over the rounds' check runs; "
                     f"concurrent stages: {concurrent}")
    _pipe_oracle(ctx, res, stream, rb)
    _speed_note(ctx, res)
    return res


def _pipe_oracle(ctx, res, stream, rb):
    rng = random.Random(ctx.seed)
    picked = [serialize_doc(d) for d in rng.sample(stream, 6)]
    picked += [serialize_doc(rb_to_dendriform(d)) for d in rng.sample(rb, 2)]
    for doc_bytes in picked:
        if not oracle.structure_holds(doc_bytes, ctx.seed):
            res.fail("oracle rejects a doc the CLI passed")
    res.notes.append(f"oracle: {len(picked)} docs re-decided")


def _pipe_round(stream_bytes, rb_bytes):
    t0 = time.perf_counter()
    c1, out1 = _run_main(["check", "-"], stream_bytes)
    t1 = time.perf_counter()
    c2, mid = _run_main(["construct", "rb-to-dendriform", "-"], rb_bytes)
    t2 = time.perf_counter()
    c3, out3 = _run_main(["check", "-"], mid)
    t3 = time.perf_counter()
    walls = {"check": t1 - t0, "construct": t2 - t1, "check_piped": t3 - t2}
    return (c1, c2, c3), out1 + out3, walls


def _pipe_traced(ctx, res, stream_path, rb_path, n_stream, n_rb):
    with open(stream_path, "rb") as fh:
        stream_bytes = fh.read()
    with open(rb_path, "rb") as fh:
        rb_bytes = fh.read()

    def run_once(tracer):
        codes, out, walls = _pipe_round(stream_bytes, rb_bytes)
        res.attempted += n_stream + n_rb
        if codes != (0, 0, 0) or out != PASS_LINE * (n_stream + n_rb):
            res.fail(f"in-process pipe: exits {codes}")
        if not res.stage_walls:
            res.stage_walls = walls
        return sum(walls.values())

    _trace_phase(res, run_once)
    return res


WORKLOADS = {"closure": closure, "search": search, "pipe": pipe}
