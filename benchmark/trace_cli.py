"""``python -m hawkent.cli`` with spans around hawkent's public functions.

Used for the traced operations of the ``figure`` workload.  The CLI
writes its output as usual; the span summary follows on the last line
of stderr, as JSON.
"""

import json
import sys

import hawkent.cli

import tracer

if __name__ == "__main__":
    spans = tracer.Tracer()
    spans.install()
    try:
        code = hawkent.cli.main()
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + json.dumps(spans.summary()) + "\n")
    raise SystemExit(code)
