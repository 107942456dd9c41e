"""One workload process: set up, complete one operation, then a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Reads its job as
one JSON object on stdin, completes and checks a first operation, runs
the loop and prints one JSON result line.  The result carries the
system-wide monotonic clock reading at which the first operation was
done, from which ``run.py`` takes the set-up time.

The loop is closed with one client: the next operation starts when the
previous one has returned.  Only the call into hawkent is timed; the
output check runs after the clock has stopped.  An operation that
raises or fails its check counts as failed, and its latency still
counts.

Latencies are scaled to a fixed machine speed by the reference loop of
``calibration.py``, run after each operation for 2% of its latency.

With ``trace`` on, one-second blocks without and with spans
(``tracer.py``) around hawkent's public functions alternate, so that
the difference in ops/s between the two is the tracing overhead.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import calibration
import checks
import inputs as workload_inputs
import tracer

MIN_OPS = 20
TAIL_SAMPLES = 10
# The tail is taken per block of this many consecutive operations and
# the median over blocks reported.  Over a whole run of the fastest
# workload (40,000 operations) the 11th-slowest is a scheduler stall
# whose size varied fivefold between runs; per block of 200 (p95) the
# tail of five runs spread by 2%.
TAIL_BLOCK = 200
# With tracing, untraced and traced blocks of this length alternate.
BLOCK_S = 1.0
_FAILURES_KEPT = 5


def tail(latencies) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_SAMPLES`` samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def blocked_tail(latencies) -> tuple[float, float]:
    """``tail`` of each full block of ``TAIL_BLOCK`` operations, median over blocks.

    Operations after the last full block are left out, so the
    percentile does not depend on the operation count.  A run shorter
    than one block is one block.
    """
    n = len(latencies)
    size = TAIL_BLOCK if n >= TAIL_BLOCK else n
    tails = [tail(latencies[k : k + size]) for k in range(0, n - size + 1, size)]
    return statistics.median(p for p, _ in tails), statistics.median(v for _, v in tails)


def timing(latencies) -> dict:
    percentile, tail_ns = blocked_tail(latencies)
    return {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "tail_percentile": percentile,
    }


def stats(latencies: array, windows: array, failures: list[str], scales: list[float]) -> dict:
    """Scaled timing of the samples, with the unscaled timing beside it."""
    factors = [scales[w] for w in windows]
    return {
        "samples": len(latencies),
        "failed": len(failures),
        "failures": failures[:_FAILURES_KEPT],
        **timing([lat * f for lat, f in zip(latencies, factors)]),
        "raw": timing(latencies),
        "scale_median": statistics.median(factors),
    }


class Windows:
    """Windows of operations, scaled by the reference loop.

    The loop runs after every operation for ``calibration.SHARE`` of its
    latency.  A window's scale comes from the passes after each of its
    operations and those just before its first, so that every operation
    is bracketed.
    """

    length_s = 0.05

    def __init__(self):
        self.reference = calibration.ReferenceLoop()
        self.times: list[int] = []
        self.last: list[int] = []

    def after_op(self, elapsed_ns: int) -> None:
        self.last = self.reference.sample(calibration.SHARE * elapsed_ns)
        self.times.extend(self.last)

    def close(self) -> float:
        scale = calibration.REFERENCE_LOOP_NS / statistics.median(self.times)
        self.times = list(self.last)
        return scale


class Workload:
    """``op(i)`` runs the i-th operation; ``check(i, out)`` returns None or a problem."""

    points_per_op = 1

    def __init__(self, job: dict):
        self.inputs = job["inputs"]
        self.refs = job["refs"]
        self.emitted_bytes = 0
        self.emitted_ops = 0

    def pick(self, i: int):
        k = i % len(self.inputs)
        return self.inputs[k], self.refs[k]

    def emitted(self, nbytes: int) -> None:
        self.emitted_bytes += nbytes
        self.emitted_ops += 1

    def set_tracing(self, tracer_: tracer.Tracer, on: bool) -> None:
        if on:
            tracer_.install()
        else:
            tracer_.uninstall()

    def trace_summary(self, tracer_: tracer.Tracer) -> dict:
        return tracer_.summary()


class Figure(Workload):
    """A fresh ``python -m hawkent.cli figure N --alpha A`` process per operation.

    Traced operations run ``trace_cli.py`` instead, which records spans
    inside the CLI process; their summaries are added up here.
    """

    points_per_op = workload_inputs.FIGURE_STEPS

    def __init__(self, job: dict):
        super().__init__(job)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=job["src"] + (os.pathsep + path if path else ""))
        self.untraced_program = [sys.executable, "-m", "hawkent.cli"]
        self.traced_program = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_cli.py")]
        self.program = self.untraced_program
        self.summary = tracer.empty_summary()

    def op(self, i: int):
        inp, _ = self.pick(i)
        argv = [*self.program, "figure", str(inp["which"]), "--alpha", repr(inp["alpha"])]
        return subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=120)

    def check(self, i: int, proc) -> str | None:
        inp, ref = self.pick(i)
        stderr = proc.stderr
        if proc.args[: len(self.traced_program)] == self.traced_program:
            stderr, _, last = stderr.rstrip("\n").rpartition("\n")
            try:
                tracer.merge(self.summary, json.loads(last))
            except ValueError:
                return f"traced CLI wrote no span summary: {proc.stderr.strip()[-300:]}"
        self.emitted(len(proc.stdout))
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {stderr.strip()[-300:]}"
        return checks.check_figure(proc.stdout, inp["which"], ref)

    def set_tracing(self, tracer_: tracer.Tracer, on: bool) -> None:
        self.program = self.traced_program if on else self.untraced_program

    def trace_summary(self, tracer_: tracer.Tracer) -> dict:
        return self.summary


class Grid(Workload):
    """One verified ``run_sweep``: a log-T sweep at one seeded (alpha, omega)."""

    points_per_op = workload_inputs.GRID_STEPS
    verify = True

    def __init__(self, job: dict):
        super().__init__(job)
        import hawkent

        self.hawkent = hawkent

    def config(self, i: int):
        inp, _ = self.pick(i)
        h = self.hawkent
        t_min, t_max = workload_inputs.GRID_T
        spec = h.SweepSpec(
            vary="temperature",
            min=t_min,
            max=t_max,
            steps=workload_inputs.GRID_STEPS,
            scale="log",
            alpha=inp["alpha"],
            omega=inp["omega"],
        )
        return h.RunConfig(sweep=spec, verify=self.verify)

    def op(self, i: int):
        return self.hawkent.run_sweep(self.config(i))

    def check(self, i: int, rows) -> str | None:
        return checks.check_rows([r.as_tuple() for r in rows], self.pick(i)[1])


class Closed(Grid):
    """The same sweeps unverified, emitted as CSV and as JSON into memory."""

    verify = False

    def op(self, i: int):
        h = self.hawkent
        config = self.config(i)
        rows = h.run_sweep(config)
        csv_out, json_out = io.StringIO(), io.StringIO()
        h.emit_csv(rows, csv_out)
        h.emit_json(rows, json_out, config)
        return rows, csv_out.getvalue(), json_out.getvalue()

    def check(self, i: int, out) -> str | None:
        rows, csv_text, json_text = out
        self.emitted(len(csv_text) + len(json_text))
        return checks.check_closed([r.as_tuple() for r in rows], csv_text, json_text, self.pick(i)[1])


class States(Workload):
    """``measure_set(validate_density(rho, (2, 2)))`` on seeded Ginibre states."""

    def __init__(self, job: dict):
        super().__init__(job)
        import hawkent
        import numpy as np

        self.hawkent = hawkent
        self.matrices = [
            np.array([[complex(re, im) for re, im in row] for row in inp["matrix"]]) for inp in self.inputs
        ]

    def op(self, i: int):
        h = self.hawkent
        return h.measure_set(h.validate_density(self.matrices[i % len(self.matrices)], (2, 2)))

    def check(self, i: int, ms) -> str | None:
        values = (ms.concurrence, ms.eof, ms.mutual_information, ms.min_pt_eigenvalue)
        return checks.check_state(values, self.pick(i)[1])


WORKLOADS = {"figure": Figure, "grid": Grid, "closed": Closed, "states": States}


def run_one(work: Workload, i: int) -> tuple[int, str | None]:
    start = time.perf_counter_ns()
    try:
        out = work.op(i)
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter_ns() - start, f"op {i} raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    return elapsed, work.check(i, out)


class Samples:
    """Latencies and their window ids, in storage allocated before the loop.

    Allocating up front keeps the workload process's peak RSS from
    growing with the number of operations, so a faster hawkent does not
    read as a larger one.
    """

    CAPACITY = 1 << 17

    def __init__(self):
        self.latencies = array("q", bytes(8 * self.CAPACITY))
        self.windows = array("q", bytes(8 * self.CAPACITY))
        self.count = 0

    def add(self, latency_ns: int, window: int) -> None:
        if self.count == len(self.latencies):
            self.latencies.append(0)
            self.windows.append(0)
        self.latencies[self.count] = latency_ns
        self.windows[self.count] = window
        self.count += 1


def loop(work: Workload, seconds: float, first: int, tracer_=None) -> dict:
    """Closed loop for ``seconds``; with a tracer, untraced and traced blocks alternate.

    Each latency is scaled by the window it falls in.  Returns the stats
    of each phase, keyed ``untraced`` and ``traced``, and the peak RSS.
    """
    windows = Windows()
    phases = (False, True) if tracer_ is not None else (False,)
    samples = {p: Samples() for p in phases}
    failures: dict[bool, list[str]] = {False: [], True: []}
    scales: list[float] = []
    pending = False
    traced = False
    i = first
    now = time.perf_counter()
    deadline, window_end, block_end = now + seconds, now + windows.length_s, now + BLOCK_S
    while now < deadline or min(samples[p].count for p in phases) < MIN_OPS:
        if tracer_ is not None:
            tracer_.op = i
        elapsed, problem = run_one(work, i)
        samples[traced].add(elapsed, len(scales))
        if problem is not None:
            failures[traced].append(problem)
        windows.after_op(elapsed)
        pending = True
        i += 1
        now = time.perf_counter()
        switch = tracer_ is not None and now >= block_end
        if switch or now >= window_end:
            scales.append(windows.close())
            pending = False
            now = time.perf_counter()
            window_end = now + windows.length_s
        if switch:
            traced = not traced
            work.set_tracing(tracer_, traced)
            block_end = now + BLOCK_S
    if pending:
        scales.append(windows.close())
    if traced:
        work.set_tracing(tracer_, False)
    # read before the statistics below, which build lists as long as the run
    result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    names = {False: "untraced", True: "traced"}
    for p in phases:
        n = samples[p].count
        result[names[p]] = stats(samples[p].latencies[:n], samples[p].windows[:n], failures[p], scales)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    work = WORKLOADS[job["workload"]](job)
    _, problem = run_one(work, 0)
    result = {"ready_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC), "first_op_failure": problem}
    # The peak RSS of one CLI process, read before the reference loop loads
    # numpy here: a child started later inherits this process's pages until
    # it execs, and its peak RSS would then report them.
    cli_maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not job["setup_only"]:
        # Objects alive now (the job, the references, the imported modules)
        # are left out of garbage collection, so that collections during
        # the loop scan hawkent's garbage rather than the benchmark's data.
        gc.freeze()
        tracer_ = tracer.Tracer() if job["trace"] else None
        result.update(loop(work, job["seconds"], 1, tracer_))
        if isinstance(work, Figure):
            result["maxrss_kb"] = cli_maxrss_kb
        if tracer_ is not None:
            result["trace"] = work.trace_summary(tracer_)
            result["points_per_op"] = work.points_per_op
            result["bytes_per_op"] = work.emitted_bytes / work.emitted_ops if work.emitted_ops else 0.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
