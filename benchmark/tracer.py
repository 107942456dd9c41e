"""In-memory spans around hawkent's public functions, for the traced run.

``Tracer.install`` replaces each traced function by a wrapper in every
hawkent module that holds a reference to it: ``hawkent.sweep`` keeps
its own ``measure_set`` and ``hawkent.model`` its own
``validate_density``, so rebinding the defining module alone would
miss those calls.  The numpy.linalg eigensolvers, SVD and determinant
are wrapped as one span, ``linalg.lapack``.  hawkent's own source is
not touched.

A span is six integers in a flat array: id, parent id, operation id,
name index, start and end (``perf_counter_ns``).  Spans are appended
when they end, so children precede their parent; ``summary`` uses that
to take each span's self time as its duration minus the time its
children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "svd", "eigvals", "det")

# module -> {function: span name}
TRACED = {
    "hawkent.linalg": {
        "hermitian_eigenvalues": "linalg.hermitian_eigenvalues",
        "psd_square_root_factor": "linalg.psd_square_root_factor",
        "partial_trace": "linalg.partial_trace",
        "partial_transpose": "linalg.partial_transpose",
    },
    "hawkent.measures": {
        "validate_density": "measures.validate_density",
        "concurrence": "measures.concurrence",
        "mutual_information": "measures.mutual_information",
        "min_pt_eigenvalue": "measures.min_pt_eigenvalue",
        "measure_set": "measures.measure_set",
    },
    "hawkent.model": {
        "thermal_factors": "model.thermal_factors",
        "reduced_density": "model.reduced_density",
        "closed_form_concurrence": "model.closed_forms",
        "closed_form_eof": "model.closed_forms",
        "closed_form_mutual_information": "model.closed_forms",
        "closed_form_min_pt_eigenvalue": "model.closed_forms",
    },
    "hawkent.sweep": {
        "run_sweep": "sweep.run_sweep",
        "evaluate_point": "sweep.evaluate_point",
        "emit_csv": "sweep.emit_csv",
        "emit_json": "sweep.emit_json",
    },
    "hawkent.cli": {
        "build_parser": "cli.parse",
        "figure_command": "cli.figure_command",
        "_write_text": "cli.write",
    },
}

_FIELDS = 6


class Tracer:
    """Records spans while installed; ``summary`` reduces them per name."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.errors: dict[str, int] = {}
        self.op = 0
        self._stack = [-1]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                key = f"{name}:{type(exc).__name__}"
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((span_id, parent, self.op, index, start, end))

        return traced

    def _parser_factory(self, build_parser):
        # parse_args is a method of the parser that build_parser returns
        def build():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return self.wrap("cli.parse", build)

    def install(self) -> None:
        """Rebind every traced function in every loaded hawkent module."""
        import numpy.linalg

        replacements = {}
        for module_name, functions in TRACED.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, span_name in functions.items():
                original = getattr(module, attr)
                if attr == "build_parser":
                    wrapper = self._parser_factory(original)
                else:
                    wrapper = self.wrap(span_name, original)
                replacements[id(original)] = (original, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "hawkent" and not name.startswith("hawkent."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(module, attr, entry[1])
        for attr in LAPACK_FUNCTIONS:
            self._rebind(numpy.linalg, attr, self.wrap("linalg.lapack", getattr(numpy.linalg, attr)))

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, total ns and self ns; plus error counts.

        ``root_ns`` is the time covered by spans without a parent.
        """
        per_name = {name: [0, 0, 0] for name in self.names}
        child_cover: dict[int, int] = {}
        root_ns = 0
        s = self.spans
        for k in range(0, len(s), _FIELDS):
            span_id, parent, _op, index, start, end = s[k : k + _FIELDS]
            duration = end - start
            entry = per_name[self.names[index]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_cover.pop(span_id, 0)
            if parent < 0:
                root_ns += duration
            else:
                child_cover[parent] = child_cover.get(parent, 0) + duration
        return {"spans": per_name, "errors": dict(self.errors), "root_ns": root_ns}


def merge(into: dict, part: dict) -> None:
    """Add the counts of one summary to another."""
    for name, values in part["spans"].items():
        totals = into["spans"].setdefault(name, [0, 0, 0])
        for k, v in enumerate(values):
            totals[k] += v
    for key, count in part["errors"].items():
        into["errors"][key] = into["errors"].get(key, 0) + count
    into["root_ns"] += part["root_ns"]


def empty_summary() -> dict:
    return {"spans": {}, "errors": {}, "root_ns": 0}

