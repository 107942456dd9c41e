"""hawkent benchmark: one workload, one seed, one measured run.

    python3 benchmark/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; ``src/hawkent`` is put on
``PYTHONPATH`` of every process started, nothing is installed.  The
inputs come from ``--seed`` (``inputs.py``); before the run their
reference outputs are computed with mpmath (``oracle.py``), and the
oracle and the checks prove on a self-test that they reject a value
off by 1e-8.  Every output of every operation is then checked
(``checks.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance and sample counts.  Exits 2 without a
result when ``src/hawkent`` is missing, and 1 when a workload process
dies.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("figure", "grid", "closed", "states")

# Set-up is timed in this many fresh workload processes (after one
# untimed warm-up that fills the bytecode cache), each scaled by the
# reference loop timed just before and after it; the median is reported.
SETUP_RUNS = 7
# Reference-loop time around each set-up process and import run.
CALIBRATION_NS = 5e6
IMPORT_RUNS = 3
SUBPROCESS_GRACE_S = 100


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def references(workload: str, items: list[dict]) -> list:
    if workload == "states":
        return [oracle.state_measures(item["matrix"]) for item in items]
    if workload == "figure":
        grid = oracle.log_grid(*inputs.FIGURE_T, inputs.FIGURE_STEPS)
        return [oracle.sweep_rows(item["alpha"], inputs.FIGURE_OMEGA, grid) for item in items]
    grid = oracle.log_grid(*inputs.GRID_T, inputs.GRID_STEPS)
    return [oracle.sweep_rows(item["alpha"], item["omega"], grid) for item in items]


def run_worker(job: dict) -> tuple[float, dict]:
    """Start one workload process; return its unscaled set-up seconds and result."""
    payload = json.dumps(job)
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=payload,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=job["seconds"] + SUBPROCESS_GRACE_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (result["ready_ns"] - start) / 1e9, result


def import_self_us(module: str) -> dict[str, int]:
    """Self import time of every module loaded by ``import module``, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=SUBPROCESS_GRACE_S,
        check=True,
    )
    times = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = int(fields[0])
    return times


def import_metrics() -> dict:
    """hawkent's own modules, and the modules beyond numpy's that ``import hawkent.cli`` loads.

    Scaled by the reference loop timed around the import runs.
    """
    reference = calibration.ReferenceLoop()
    loop_times = reference.sample(CALIBRATION_NS)
    own, extra = [], []
    for _ in range(IMPORT_RUNS):
        numpy_modules = import_self_us("numpy")
        cli = import_self_us("hawkent.cli")
        own.append(sum(us for name, us in cli.items() if name.split(".")[0] == "hawkent"))
        extra.append(
            sum(
                us
                for name, us in cli.items()
                if name.split(".")[0] not in ("hawkent", "numpy") and name not in numpy_modules
            )
        )
        loop_times += reference.sample(CALIBRATION_NS)
    us_to_ms = calibration.REFERENCE_LOOP_NS / statistics.median(loop_times) / 1e3
    return {
        "import.hawkent_self_ms": statistics.median(own) * us_to_ms,
        "import.stdlib_ms": statistics.median(extra) * us_to_ms,
    }


def end_to_end(job: dict) -> tuple[dict, dict, list[str]]:
    probe = dict(job, setup_only=True)
    run_worker(probe)  # warm-up: bytecode cache and page cache
    reference = calibration.ReferenceLoop()
    before = reference.sample(CALIBRATION_NS)
    setups, firsts = [], []
    for _ in range(SETUP_RUNS):
        seconds, result = run_worker(probe)
        after = reference.sample(CALIBRATION_NS)
        setups.append(seconds * calibration.REFERENCE_LOOP_NS / statistics.median(before + after))
        firsts.append(result["first_op_failure"])
        before = after
    _, result = run_worker(job)
    firsts.append(result["first_op_failure"])
    main = result["untraced"]
    attempted = main["samples"] + len(firsts)
    failed = main["failed"] + sum(f is not None for f in firsts)
    metrics = {
        "ops_per_s": (main["ops_per_s"], "1/s"),
        "latency_p50_ms": (main["latency_p50_ms"], "ms"),
        "latency_tail_ms": (main["latency_tail_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "samples": main["samples"],
        "tail_percentile": main["tail_percentile"],
        "unscaled": main["raw"],
        "scale_median": main["scale_median"],
        "setup_samples": len(setups),
        "setup_s_each": setups,
        "error_ratio": failed / attempted,
    }
    failures = [f for f in firsts if f] + main["failures"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details, failures


def per_layer(job: dict) -> tuple[dict, dict, list[str]]:
    imports = import_metrics()
    _, result = run_worker(dict(job, setup_only=False))
    untraced, traced, summary = result["untraced"], result["traced"], result["trace"]
    spans, errors = summary["spans"], summary["errors"]
    ops = traced["samples"]
    points = ops * result["points_per_op"]
    # span times are scaled like the end-to-end times, by the traced operations' median factor
    ns_to_ms_per_op = traced["scale_median"] / ops / 1e6

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def self_ms(name):
        return spans.get(name, (0, 0, 0))[2] * ns_to_ms_per_op

    def total_ms(name):
        return spans.get(name, (0, 0, 0))[1] * ns_to_ms_per_op

    first = result["first_op_failure"]
    attempted = 1 + untraced["samples"] + traced["samples"]
    failed = (first is not None) + untraced["failed"] + traced["failed"]
    op_ms = 1e3 * traced["scale_median"] / traced["raw"]["ops_per_s"]
    values = {
        **{name: (v, "ms") for name, v in imports.items()},
        "cli.parse_ms": (total_ms("cli.parse"), "ms/op"),
        "cli.figure_command.self_ms": (self_ms("cli.figure_command"), "ms/op"),
        "cli.write_ms": (total_ms("cli.write"), "ms/op"),
        "sweep.run_sweep.self_ms": (self_ms("sweep.run_sweep"), "ms/op"),
        "sweep.evaluate_point.self_ms": (self_ms("sweep.evaluate_point"), "ms/op"),
        "sweep.emit_csv.ms": (total_ms("sweep.emit_csv"), "ms/op"),
        "sweep.emit_json.ms": (total_ms("sweep.emit_json"), "ms/op"),
        "sweep.emit.bytes": (result["bytes_per_op"], "bytes/op"),
        "model.thermal_factors.calls": (calls("model.thermal_factors") / ops, "calls/op"),
        "model.thermal_factors.self_ms": (self_ms("model.thermal_factors"), "ms/op"),
        "model.closed_forms.calls": (calls("model.closed_forms") / ops, "calls/op"),
        "model.closed_forms.self_ms": (self_ms("model.closed_forms"), "ms/op"),
        "model.reduced_density.self_ms": (self_ms("model.reduced_density"), "ms/op"),
        **{
            f"measures.{name}.self_ms": (self_ms(f"measures.{name}"), "ms/op")
            for name in ("validate_density", "concurrence", "mutual_information", "min_pt_eigenvalue", "measure_set")
        },
        **{
            f"linalg.{name}.self_ms": (self_ms(f"linalg.{name}"), "ms/op")
            for name in ("hermitian_eigenvalues", "psd_square_root_factor", "partial_trace", "partial_transpose")
        },
        "linalg.lapack_ms": (total_ms("linalg.lapack"), "ms/op"),
        "linalg.lapack_calls_per_point": (calls("linalg.lapack") / points, "calls/point"),
        "measures.concurrence.calls_per_state": (
            calls("measures.concurrence") / calls("measures.measure_set") if calls("measures.measure_set") else 0.0,
            "calls/state",
        ),
        "sweep.verify_failures": (errors.get("sweep.evaluate_point:VerificationError", 0), "count"),
        "op.unattributed_ms": (op_ms - summary["root_ns"] * ns_to_ms_per_op, "ms/op"),
        "trace.untraced_ops_per_s": (untraced["ops_per_s"], "1/s"),
        "trace.traced_ops_per_s": (traced["ops_per_s"], "1/s"),
        "trace.overhead_ops_per_s": (traced["ops_per_s"] - untraced["ops_per_s"], "1/s"),
        "error_ratio": (failed / attempted, "ratio"),
    }
    details = {
        "samples": {"untraced": untraced["samples"], "traced": ops},
        "tail_percentile": {"untraced": untraced["tail_percentile"], "traced": traced["tail_percentile"]},
        "lapack_calls": calls("linalg.lapack"),
        "points": points,
        "import_runs": IMPORT_RUNS,
        "scale_median": {"untraced": untraced["scale_median"], "traced": traced["scale_median"]},
        "unscaled": {"untraced": untraced["raw"], "traced": traced["raw"]},
    }
    failures = ([first] if first else []) + untraced["failures"] + traced["failures"]
    return {"attempted": attempted, "failed": failed, "metrics": values}, details, failures


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hawkent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hawkent" / "__init__.py").is_file():
        print(f"error: no hawkent sources under {SRC}", file=sys.stderr)
        return 2

    problem = oracle.self_test()
    items = inputs.make_inputs(args.workload, args.seed)
    job = {
        "workload": args.workload,
        "inputs": items,
        "refs": references(args.workload, items),
        "seconds": args.seconds,
        "setup_only": False,
        "trace": bool(args.trace),
        "src": str(SRC),
    }
    try:
        result, details, failures = (per_layer if args.trace else end_to_end)(job)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    if problem:
        print(problem, file=sys.stderr)
    print(json.dumps({"provenance": provenance(args), "details": details, "oracle_self_test": problem or "passed"}))
    print(
        json.dumps(
            {
                "correct": problem is None and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
