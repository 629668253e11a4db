"""A fixed computation that gauges how fast the machine runs just now.

The benchmark's host shares its cores with other tenants. The speed of
a core drifts by up to about 2x over tens of seconds, for the program and
for any other code alike, and at times the host takes a whole vCPU away
(steal time). So the medians of raw times from runs a few minutes apart
can differ by more than any useful bound. A run therefore also times
:func:`reference` between its children, and reports each time metric
scaled to a machine that runs the reference in ``REFERENCE_S`` seconds
(see :func:`stats.scaled`): CPU times by the reference's CPU time, which
no more counts stolen time than a child's CPU time does, and the serial
set-up time by the reference's wall time. The raw times are printed
beside them.

The reference calls no code of the program, so no change to the program
moves it, and it uses no BLAS, so it runs on one thread whatever the
environment says.
"""

import time
from typing import NamedTuple

import numpy as np

# The nominal time of one pass: about what it takes on a 2-vCPU Xeon VM
# when the host is quiet.
REFERENCE_S = 0.2
LOOPS = 80

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((64, 52)) + 1j * _RNG.standard_normal((64, 52))
_V = _X[:, 0].copy()


def _interpreted(n):
    acc = 0.0
    for k in range(n):
        acc += k * 0.5
    return acc


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float


def reference():
    """Wall and CPU seconds one pass takes.

    A pass interleaves the kinds of work a trial does: an interpreted
    loop, many numpy calls on 64-sample vectors, FFTs over a 64x52 block,
    a complex contraction, and seeding of random generators.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    for i in range(LOOPS):
        _interpreted(6000)
        for _ in range(100):
            np.abs(np.exp(1j * _V.real) * _V).sum()
        for _ in range(20):
            np.fft.fft(_X, axis=0)
        np.einsum("ij,ik->jk", _X.conj(), _X)
        for j in range(30):
            np.random.default_rng([i, j]).standard_normal(52)
    return Pass(time.perf_counter() - wall, time.process_time() - cpu)
