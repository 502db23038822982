"""A fixed reference kernel that tracks the host's current speed.

On a shared 2-vCPU virtual machine the same code ran up to 2x slower from one
minute to the next, and process CPU time drifted with wall time, so the
slowdown is contention for the physical core, not descheduling. The
benchmark therefore times this kernel every 0.5 s of wall time (see
workloads.Bench) and also reports each timing at reference speed:
multiplied by CAL_REF_S over the kernel time around it. Over ten seeds
this cut the run-to-run spread of the criterion-8 grit run time from 0.09
raw to 0.03 (quartile distance over median).

The kernel is frozen benchmark code, independent of grit, so a change to
grit never moves it. It mixes the two kinds of work grit does: an
interpreter loop of scalar reads and small-vector NumPy updates (like the
Jacobi sweeps), and BLAS/LAPACK calls (like the Hessian and the SVDs).
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time at the reference speed, about its median on the 2-vCPU
# machine the bounds were set on; it only sets the scale of reported times.
CAL_REF_S = 0.008
REPEATS = 3

_RNG = np.random.default_rng(12345)
_B = _RNG.normal(size=(160, 160)) / 16.0
_S = _RNG.normal(size=(96, 160))


def _interpreter_part() -> float:
    a = np.arange(64, dtype=np.float64).reshape(8, 8)
    a = a + a.T
    c = s = float(np.sqrt(0.5))
    total = 0.0
    for _ in range(24):
        for p in range(7):
            for q in range(p + 1, 8):
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                total += float(a[p, q])
    return total


def _blas_part() -> float:
    x = _B
    for _ in range(12):
        x = np.tanh(x @ _B)
    return float(np.linalg.svd(_S, compute_uv=False)[0] + x[0, 0])


def kernel_seconds() -> float:
    """Median wall time of REPEATS runs of the reference kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _interpreter_part()
        _blas_part()
        times.append(time.perf_counter() - start)
    return float(np.median(times))
