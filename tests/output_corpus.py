"""The committed output corpus: CLI invocations and the sha256 of what each emits.

Each invocation runs in-process through ``hawkent.cli.main`` in one
working directory, so ``--out`` names a file there and the JSON config
echo holds the same relative path on every machine.  ``COLUMNS`` is
fixed at 80, so argparse wraps its usage text the same way on any
terminal.  A record holds the exit code and the sha256 of stdout, of
stderr and of the ``--out`` file's bytes (None when no file is
written).  ``figure 2`` at its defaults is also kept as full text, so
a failure can show the cells that changed.

``tests/test_output_corpus.py`` replays the list and names every
invocation whose record changed.  After a change that alters output on
purpose, regenerate both files:

    PYTHONPATH=src python tests/output_corpus.py

Before it writes, the script prints the argv of every record that
differs from the committed corpus, and whether ``figure_2.csv``
changed: the list of changed invocations for the change's notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from hawkent.cli import main

DATA = Path(__file__).resolve().parent / "data"
CORPUS_PATH = DATA / "output_corpus.json"
FIGURE_2_PATH = DATA / "figure_2.csv"

_SWEEP_T = ["sweep", "--vary", "temperature", "--alpha", "0.6", "--omega", "1"]

INVOCATIONS = [
    # figures, default and custom
    ["figure", "1"],
    ["figure", "2"],
    ["figure", "3"],
    ["figure", "1", "--alpha", "0.3", "--omega", "2", "--max", "5", "--steps", "50"],
    ["figure", "2", "--alpha", "0.9", "--steps", "17", "--out", "out.csv"],
    ["figure", "3", "--omega", "0.5", "--max", "100", "--steps", "64"],
    ["figure", "1", "--alpha", "0.999999", "--omega", "30", "--steps", "12"],
    # both temperature extremes
    *(["limits", "--alpha", a] for a in (
        "0.01", "0.1", "0.25", "0.5", "0.6", "0.7071067811865476", "0.8", "0.9", "0.99",
        "0.999999",
    )),
    # single points
    ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1", "--verify", "off"],
    ["measure", "--alpha", "0.7071067811865476", "--omega", "1", "--temperature", "0"],
    ["measure", "--alpha", "0.3", "--omega", "10", "--temperature", "0.001"],
    ["measure", "--alpha", "0.999", "--omega", "0.1", "--temperature", "100"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--mass", "1"],
    ["measure", "--alpha", "0.8", "--omega", "2", "--mass", "0.01", "--verify", "off"],
    ["measure", "--alpha", "1e-06", "--omega", "1", "--temperature", "1e6"],
    # sweeps over each parameter, linear and log, CSV and JSON, verify on and off
    [*_SWEEP_T, "--min", "0.01", "--max", "10", "--steps", "40", "--scale", "log"],
    # a middle grid point whose C_I_II cell np.geomspace's grid printed by the CPU's SIMD level
    [*_SWEEP_T, "--min", "0.0026", "--max", "0.0228", "--steps", "3", "--scale", "log"],
    [*_SWEEP_T, "--min", "0", "--max", "5", "--steps", "21", "--verify", "off"],
    [*_SWEEP_T, "--min", "0.01", "--max", "10", "--steps", "25", "--scale", "log",
     "--format", "json"],
    [*_SWEEP_T, "--min", "0.1", "--max", "3", "--steps", "9", "--format", "json",
     "--verify", "off", "--out", "out.json"],
    ["sweep", "--vary", "alpha", "--min", "0.05", "--max", "0.95", "--steps", "30",
     "--omega", "1", "--temperature", "0.7"],
    ["sweep", "--vary", "alpha", "--min", "0.001", "--max", "0.999", "--steps", "20",
     "--scale", "log", "--omega", "1", "--mass", "0.05", "--format", "json"],
    ["sweep", "--vary", "alpha", "--min", "0.2", "--max", "0.8", "--steps", "7",
     "--omega", "3", "--temperature", "0", "--verify", "off", "--out", "out.csv"],
    ["sweep", "--vary", "omega", "--min", "0.01", "--max", "100", "--steps", "33",
     "--scale", "log", "--alpha", "0.7", "--temperature", "1"],
    ["sweep", "--vary", "omega", "--min", "0.5", "--max", "4", "--steps", "15",
     "--alpha", "0.4", "--mass", "0.1", "--format", "json", "--out", "out.json"],
    ["sweep", "--vary", "omega", "--min", "1", "--max", "2", "--steps", "2",
     "--alpha", "0.95", "--temperature", "3", "--verify", "off"],
    # JSON cells off the common path: subnormal (e-314) and e+13 values
    [*_SWEEP_T, "--min", "0.0006", "--max", "0.0015", "--steps", "40", "--format", "json"],
    ["sweep", "--vary", "omega", "--min", "1e11", "--max", "1e15", "--steps", "9",
     "--scale", "log", "--alpha", "0.6", "--temperature", "1e13", "--format", "json"],
    # a write failure exits 4
    ["figure", "1", "--steps", "5", "--out", "missing/out.csv"],
    # invalid invocations exit 2
    [],
    ["bogus"],
    ["measure", "--alpha", "0.5", "--temperature", "1"],
    ["measure", "--alpha", "1.5", "--omega", "1", "--temperature", "1"],
    ["measure", "--alpha", "0", "--omega", "1", "--temperature", "1"],
    ["measure", "--alpha", "nan", "--omega", "1", "--temperature", "1"],
    ["measure", "--alpha", "0.5", "--omega", "-1", "--temperature", "1"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "-1"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "inf"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1", "--mass", "1"],
    ["measure", "--alpha", "0.5", "--omega", "1"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--mass", "0"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--mass", "1e-320"],
    ["measure", "--alpha", "0.5", "--omega", "1", "--temperature", "1", "--verify", "maybe"],
    [*_SWEEP_T, "--min", "0.1", "--max", "1", "--steps", "1"],
    [*_SWEEP_T, "--min", "2", "--max", "1", "--steps", "5"],
    [*_SWEEP_T, "--min", "0", "--max", "1", "--steps", "5", "--scale", "log"],
    [*_SWEEP_T, "--min", "0.1", "--max", "1", "--steps", "2.5"],
    [*_SWEEP_T, "--min", "0.1", "--max", "1", "--steps", "5", "--format", "xml"],
    [*_SWEEP_T, "--min", "0.1", "--max", "1", "--steps", "5", "--temperature", "1"],
    ["sweep", "--vary", "alpha", "--min", "0.1", "--max", "0.9", "--steps", "5",
     "--temperature", "1"],
    ["sweep", "--vary", "mass", "--min", "0.1", "--max", "0.9", "--steps", "5"],
    ["figure", "4"],
    ["figure", "1", "--max", "0.001"],
    ["figure", "2", "--steps", "1"],
    ["limits", "--alpha", "1"],
    ["limits"],
]


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _record(argv: list[str]) -> dict:
    """Run one invocation in the current directory and hash what it emits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    written = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.is_file():
            written = path.read_bytes()
            path.unlink()
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
        "out": _sha256(written),
    }


def replay(workdir) -> tuple[list[dict], str]:
    """The record of every invocation, run in ``workdir``, and the text of ``figure 2``."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir)
    try:
        records = [_record(argv) for argv in INVOCATIONS]
        figure = io.StringIO()
        with contextlib.redirect_stdout(figure):
            main(["figure", "2"])
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return records, figure.getvalue()


def _report_changes(records: list[dict], figure: str) -> None:
    """Print the argv of every record that differs from the committed one, and figure 2's state."""
    committed = json.loads(CORPUS_PATH.read_text(encoding="utf-8")) if CORPUS_PATH.is_file() else []
    old = {tuple(r["argv"]): r for r in committed}
    changed = [r["argv"] for r in records if old.get(tuple(r["argv"])) != r]
    print(f"{len(changed)} of {len(records)} records changed")
    for argv in changed:
        print("  " + " ".join(argv))
    same = FIGURE_2_PATH.is_file() and FIGURE_2_PATH.read_text(encoding="utf-8") == figure
    print(f"{FIGURE_2_PATH.name} {'unchanged' if same else 'changed'}")


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        records, figure = replay(workdir)
    _report_changes(records, figure)
    DATA.mkdir(exist_ok=True)
    CORPUS_PATH.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    FIGURE_2_PATH.write_text(figure, encoding="utf-8")
    codes = [r["exit"] for r in records]
    print(f"{len(records)} invocations, exit codes {sorted(set(codes))}: wrote {CORPUS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
