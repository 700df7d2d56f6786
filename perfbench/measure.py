"""Timing statistics and CLI process helpers.

The CLI always runs as ``sys.executable -m halg.cli`` with PYTHONPATH set to
the ``src`` directory of the tree under test, so the working tree is what
gets measured, never an installed copy.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracle

# The tail is the highest of these percentiles that has at least TAIL_BEYOND
# samples above it.
LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def _rank(q, n):
    """Nearest rank of percentile q among n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(sorted_values, q):
    """Nearest-rank percentile q (0 < q <= 100) of an ascending list."""
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail(values):
    """(q, value): the highest ladder percentile with at least TAIL_BEYOND
    samples beyond its rank; the median when even that has fewer."""
    s = sorted(values)
    best = LADDER[0]
    for q in LADDER:
        if len(s) - _rank(q, len(s)) >= TAIL_BEYOND:
            best = q
    return best, percentile(s, best)


def median(values):
    return statistics.median(values)


# The speed of a shared VM's CPU moves by 30% and more within seconds,
# independently on each vCPU, which is more than the spread a timing may
# show between runs.  The gauge times a fixed reference computation, the
# oracle deciding two small docs written out here (so it never changes with
# halg), between the operations of a run on the CPU they run on.  Each time
# measured is reported at the reference speed, the speed at which the
# reference takes REFERENCE_S.
REFERENCE_DOCS = (
    b'{"format-version":"1","kind":"plain-assoc-matching-rb","field":{"kind":'
    b'"rationals"},"dim":2,"omega":["a"],"families":{"dot":[[["1/2",0],'
    b'[0,"1/2"]],[[0,0],[0,0]]]},"operators":{"ops":{"a":[[0,0],["-1/12",0]]},'
    b'"weights":{"a":0}}}',
    b'{"format-version":"1","kind":"hom-assoc-matching-rb","field":{"kind":'
    b'"prime-field","p":5},"dim":2,"omega":["a"],"families":{"dot":[[[0,0],'
    b'[0,0]],[[3,0],[0,3]]]},"operators":{"ops":{"a":[[0,3],[0,0]]},'
    b'"weights":{"a":0}},"twist":[[1,0],[0,1]]}',
)
# About the median reference time on a 2-vCPU VM under Python 3.11.7.
REFERENCE_S = 0.006
GAUGE_EVERY_S = 0.25


class SpeedGauge:
    """Reference-computation times sampled over a run.  A time measured
    between samples is reported multiplied by now(): REFERENCE_S over the
    median of the LATEST samples, which cover about the last second."""

    LATEST = 4

    def __init__(self):
        self.samples = []
        self.last = -math.inf
        self._now = 1.0

    def sample(self, k: int = 1) -> None:
        for _ in range(k):
            t0 = time.perf_counter()
            for doc in REFERENCE_DOCS:
                if not oracle.structure_holds(doc):
                    raise AssertionError("the speed reference must hold")
            self.samples.append(time.perf_counter() - t0)
        self.last = time.perf_counter()
        self._now = REFERENCE_S / median(self.samples[-self.LATEST:])

    def maybe(self) -> None:
        """A sample when GAUGE_EVERY_S have gone by since the last one."""
        if time.perf_counter() - self.last >= GAUGE_EVERY_S:
            self.sample()

    def now(self) -> float:
        return self._now

    def factor(self) -> float:
        """The factor over the whole run, for the record."""
        return REFERENCE_S / median(self.samples)


def pin_to_one_cpu() -> int:
    """Run this process, and the CLI processes it starts, on one CPU, the
    one the gauge measures.  Returns the CPU, or -1 where affinity cannot
    be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return -1
    return cpu


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


class Cli:
    """Runs halg CLI processes from one source tree, one caller at a time."""

    def __init__(self, src: str):
        # PYTHON* settings such as PYTHONUNBUFFERED or PYTHONDONTWRITEBYTECODE
        # would change what is measured, so children run with none of them.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = src

    def argv(self, *args):
        return [sys.executable, "-m", "halg.cli", *args]

    def run(self, *args, stdin_path=None):
        """(exit code, stdout bytes, seconds to first stdout line, wall s)."""
        stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv(*args), stdin=stdin,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, env=self.env)
            first = proc.stdout.readline()
            t_first = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.stdout.close()
            code = proc.wait()
            wall = time.perf_counter() - t0
        finally:
            if stdin_path:
                stdin.close()
        return code, first + rest, t_first, wall

    def chain(self, first_args, second_args, concurrent: bool):
        """first | second.  With concurrent false (one CPU) the first stage
        runs to completion into memory before the second starts.
        Returns ((code1, code2), stdout of second, wall s)."""
        t0 = time.perf_counter()
        if not concurrent:
            code1, out1, _, _ = self.run(*first_args)
            proc = subprocess.Popen(self.argv(*second_args), stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, env=self.env)
            out, _ = proc.communicate(out1)
            return (code1, proc.returncode), out, time.perf_counter() - t0
        p1 = subprocess.Popen(self.argv(*first_args), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=self.env)
        try:
            p2 = subprocess.Popen(self.argv(*second_args), stdin=p1.stdout,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, env=self.env)
        finally:
            p1.stdout.close()
        out = p2.stdout.read()
        p2.stdout.close()
        codes = (p1.wait(), p2.wait())
        return codes, out, time.perf_counter() - t0

    def python_seconds(self, code: str) -> float:
        """Run a -c snippet that prints one float; return it."""
        out = subprocess.run([sys.executable, "-c", code], env=self.env,
                             stdin=subprocess.DEVNULL, capture_output=True,
                             check=True, timeout=60).stdout
        return float(out.decode().strip())

    def import_seconds(self, module: str = "halg") -> float:
        """Time to import module in a fresh interpreter, measured inside it."""
        return self.python_seconds(
            "import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
