"""How fast the host runs during a run, relative to the reference host.

On a shared host other tenants change the speed of a single-threaded run
for minutes at a time. On the 2-vCPU Xeon VM this benchmark was written
on, ten consecutive `geometry` runs of identical work went from 7.7 s to
14.1 s per pass as a neighbour's load rose, and the import of innerlab
from 0.55 s to 1.05 s. Raw times of one commit then spread wider than any
useful regression bound.

`HostSpeed` times a fixed kernel about once a second: between operations,
and between the rungs of a ladder solve, whose operations last ten seconds.
Time spent in the kernel is left out of the operation it interrupts.
The kernel mixes the three kinds of work innerlab does (interpreter loops,
numpy on small arrays, sparse LU) and calls none of innerlab's code, so no
change to the package can move it. The median kernel time over the run,
divided by its median on the reference host, is the run's slowdown; the
benchmark divides raw times by it and reports reference-host seconds. Raw
times are printed beside them.
"""

import statistics
import time

REFERENCE_S = 0.027  # median kernel time on the reference host (2-vCPU Xeon VM)
EVERY_S = 1.0  # least time between two samples


class HostSpeed:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = 40
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._matrix = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
        self._rhs = np.ones(n * n)
        self._z = np.exp(1j * np.linspace(0.0, 6.0, 1024))
        self._np, self._splu = np, splu
        self.samples = []
        self.spent = 0.0  # seconds spent timing the kernel, kept out of operation times
        self._last = -float("inf")

    def _kernel(self):
        np = self._np
        t0 = time.perf_counter()
        x, acc = 0.5, []
        for i in range(40000):
            x = (x * 1.0000001 + i) % 97.0
            acc.append(x)
        for _ in range(150):
            w = np.abs(self._z - 0.3) / np.abs(1.0 - 0.3 * self._z)
            float(np.min(np.arctanh(np.minimum(w, 0.999))))
        for _ in range(3):
            self._splu(self._matrix).solve(self._rhs)
        return time.perf_counter() - t0

    def sample(self, force=False):
        """Time the kernel, unless the last sample is less than EVERY_S old."""
        if force or time.perf_counter() - self._last >= EVERY_S:
            t0 = time.perf_counter()
            self.samples.append(self._kernel())
            self._last = time.perf_counter()
            self.spent += self._last - t0

    def slowdown(self):
        """Median kernel time so far over its time on the reference host."""
        return statistics.median(self.samples) / REFERENCE_S
