"""The benchmark's tracer still finds every name it rebinds.

``benchmark/tracer.py`` wraps named hawkent functions by ``getattr``
in every traced module that is loaded, and skips a module that is not.
A rename or removal of a function in a module that still exists makes
``install`` raise AttributeError and the traced benchmark runs fail; a
traced module that no longer exists is skipped.  The tracer needs only
the standard library, so it is loaded here straight from its file.
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
    for module_name, functions in tracer.TRACED.items():
        module = sys.modules.get(module_name)
        if module is None:
            # the tracer's skip branch: fine only for a module that does not exist
            assert importlib.util.find_spec(module_name) is None, module_name
        else:
            missing = [attr for attr in functions if not hasattr(module, attr)]
            assert not missing, (module_name, missing)
    originals = {
        (module_name, attr): getattr(sys.modules[module_name], attr)
        for module_name, functions in tracer.TRACED.items()
        if module_name in sys.modules
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
