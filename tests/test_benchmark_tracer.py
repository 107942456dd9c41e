"""The benchmark's tracer still finds every name it rebinds.

``benchmark/tracer.py`` wraps named hawkent functions by ``getattr``;
a rename or removal in ``src/`` makes ``install`` raise AttributeError
and the traced benchmark runs fail.  The tracer needs only the
standard library, so it is loaded here straight from its file.
"""

import importlib.util
import sys
from pathlib import Path

import numpy.linalg

import hawkent.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hawkent_benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_traced_name():
    tracer = _load_tracer()
    for module_name in tracer.TRACED:
        assert module_name in sys.modules, module_name
    originals = {
        (module_name, attr): getattr(sys.modules[module_name], attr)
        for module_name, functions in tracer.TRACED.items()
        for attr in functions
    }
    eigh = numpy.linalg.eigh
    spans = tracer.Tracer()
    try:
        spans.install()
        assert hawkent.cli._write_text is not originals[("hawkent.cli", "_write_text")]
    finally:
        spans.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(sys.modules[module_name], attr) is original, (module_name, attr)
    assert numpy.linalg.eigh is eigh
