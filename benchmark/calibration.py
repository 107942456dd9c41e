"""Machine-speed calibration for the timed metrics.

On a small shared machine the same code runs up to 1.9x slower for
seconds at a time while neighbours load the cores; in a 30-second
trace of 0.5 s windows, the median latency of one operation spread by
52% (interquartile range over median).  A fixed reference loop, timed
next to the operation, slows by about the same factor: the ratio of
the two spread by 2.6% on the same trace.  So every timed quantity is
scaled by ``REFERENCE_LOOP_NS / t_ref``, where ``t_ref`` is the median
time of the loop measured next to it.  The scaled values read as times
on a machine where the loop takes ``REFERENCE_LOOP_NS``, about its time
on an idle 2-vCPU x86-64 sandbox.  Raw times are reported beside them.

A fresh ``python -c "import numpy"`` was tried as a second reference
for work that starts processes.  Between two sets of ten runs it sped
up by a third while the ``figure`` CLI sped up by a sixth, which moved
scaled ``figure`` latencies by 22%; the loop is used throughout.
"""

from __future__ import annotations

import time

REFERENCE_LOOP_NS = 30_000

# Share of an operation's latency spent timing the reference loop after it.
SHARE = 0.02


class ReferenceLoop:
    """Fixed work in the mix hawkent runs: Python float arithmetic and small LAPACK calls."""

    def __init__(self):
        # imported here so that the figure workload process, which only
        # starts CLI processes, does not load numpy during its set-up
        import numpy as np

        self._matrix = np.eye(4) + 0.1
        # bound now, so that the traced run's wrappers around numpy.linalg
        # neither count these calls nor slow them
        self._eigvalsh = np.linalg.eigvalsh
        self._eigh = np.linalg.eigh

    def once(self) -> int:
        """Nanoseconds taken by one pass."""
        start = time.perf_counter_ns()
        total = 0.0
        for k in range(200):
            total += (k * 1.5) ** 0.5
        self._eigvalsh(self._matrix)
        self._eigh(self._matrix)
        return time.perf_counter_ns() - start

    def sample(self, budget_ns: float) -> list[int]:
        """Timed passes until ``budget_ns`` is spent, at least one, after one untimed pass.

        The untimed pass brings the loop's code and data back into cache
        after the work that ran before it.
        """
        self.once()
        times = [self.once()]
        spent = times[0]
        while spent < budget_ns:
            times.append(self.once())
            spent += times[-1]
        return times
