"""Host-speed probe.

The host this benchmark was built on runs the same code up to 2.5 times
faster at one moment than at another (a fixed pure-Python loop took 0.06 s
and, half an hour earlier, 0.17 s).  Raw wall times therefore say more about
the host than about netmodal.  The probe is a fixed piece of work of the
same kind as netmodal's (Python loops over small numpy calls).  Timed
between the operations of a run, the probes nearest to an operation state
its wall time at a reference host speed: ``t * REF_S / median(probes)``.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.01  # the reference host runs one probe in 10 ms

_COEFFS = np.arange(1.0, 10.0)
_MATRIX = np.eye(6) + 0.1


def probe_seconds() -> float:
    """Wall time of one probe."""
    t0 = time.perf_counter()
    for k in range(1000):
        np.polyval(_COEFFS, 0.5 + 1e-4 * k)
    for _ in range(200):
        np.linalg.det(_MATRIX)
    return time.perf_counter() - t0
