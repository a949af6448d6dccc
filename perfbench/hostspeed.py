"""Host-speed reference: fixed work, timed next to every timed interval.

On a shared virtual machine the same code runs up to about 40% slower for
minutes at a time, and a pure-Python loop slows down with it, so the median
of a run's passes follows the host rather than the program.  The benchmark
therefore times this reference before and after each timed interval and
scales the interval by ``NOMINAL_S`` over the mean of the two reference
times: a figure in seconds on a host where the reference takes
``NOMINAL_S``.  Slow-downs of the host stretch the reference and the interval
alike and cancel.  The reference uses nothing from rcmlab, so a change to
rcmlab moves the scaled figure by exactly as much as it moves the wall time
at a fixed host speed.

The work is a mix like the workloads': Python loops over dicts and lists,
string formatting as in the CSV writers, numpy element-wise arithmetic and a
sort, and scipy CSR products on a 2-D lattice.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse

# the reference's median time on the machine the bounds were set on (Intel
# Xeon, 2.1 GHz, 2 vCPUs), so that scaled figures read close to wall time there
NOMINAL_S = 0.2


class Reference:
    """The fixed work.  Building its arrays and one first call, which pays
    first-call costs, are not timed."""

    def __init__(self):
        n = 96
        ones = np.ones(n * n)
        self.matrix = scipy.sparse.diags([ones] * 5, [0, 1, -1, n, -n],
                                         shape=(n * n, n * n), format="csr") / 5.0
        self.vector = np.random.default_rng(0).random(n * n)
        self.values = np.random.default_rng(1).random(100_000)
        self.work()

    def work(self):
        total = 0
        table = {}
        for i in range(240_000):
            total += i * i
            table[i & 1023] = total & 255
        rows = [f"{i},{v:.17g}" for i, v in enumerate(self.values[:60_000].tolist())]
        a = self.values
        for _ in range(150):
            a = np.sqrt(a * a + 1.0) - 0.5
        b = np.sort(a)
        v = self.vector
        for _ in range(1_500):
            v = self.matrix @ v
        return total + len(table) + len("\n".join(rows)) + float(b[0]) + float(v.sum())

    def seconds(self):
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    @staticmethod
    def scale(seconds, refs):
        """``seconds`` at the nominal host speed, given the reference times
        measured around the interval."""
        return seconds * NOMINAL_S / statistics.fmean(refs)
