"""Machine-speed calibration of every reported time.

On a shared host the same call can run at speeds far apart: identical sweep
calls took 0.29 to 0.55 s within one minute, with CPU time equal to wall
time, so the processor itself ran slower, not the scheduler. Such swings
change within seconds and drift over minutes, and a run's median moves with
them. Each timed quantity is therefore paired with a fixed kernel timed right
before it, and reported at reference speed:

    seconds * REFERENCE_S / kernel seconds

The kernel does not touch navlim, so a change to navlim moves the timed
quantity and not the kernel. It mixes the workloads' kinds of work: small
symmetric eigendecompositions inside interpreter-bound loops, and one dense
240x240 eigendecomposition.
"""

import time

import numpy as np
from numpy.linalg import eigh  # bound now, so that a tracer never sees the kernel

# Kernel wall time (s) at the median speed of the machine the benchmark was
# defined on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31,
# one BLAS thread). Only scales the reported values; never change it between
# two runs that are compared.
REFERENCE_S = 0.0100

_SMALL_ROUNDS = 150

_rng = np.random.default_rng(0)
_small = _rng.standard_normal((10, 10))
_SMALL = _small @ _small.T
_medium = _rng.standard_normal((240, 240))
_MEDIUM = _medium @ _medium.T
_SHIFT = 1e-3 * np.eye(10)


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(_SMALL_ROUNDS):
        w, _ = eigh(_SMALL + i * _SHIFT)
        acc += float(w[0])
        table = {}
        for j in range(20):
            table[j] = j * acc
    eigh(_MEDIUM)
    return time.perf_counter() - started


def speed() -> float:
    """Factor that takes a time measured now to reference speed."""
    return REFERENCE_S / kernel_seconds()
