"""How many workers a job may split over: the caller and at most one more,
never more than the cores this process may run on.  ``green`` runs annealed
replicas on a helper thread and ``reports`` formats CSV blocks in a forked
process, both sized by :func:`_worker_count`."""

from __future__ import annotations

import os


def _worker_count():
    """The caller plus at most one helper, never more than the usable cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(2, cores)
