"""How fast the host runs right now, from a fixed calibration kernel.

On a shared host the same op can take 1.7 times longer from one second to
the next, and CPU time moves with wall time, so the spread between runs
comes from the host, not from the program. The benchmark times this kernel
between ops and divides each measured time by the host's slowdown at that
moment: the slowdown is the kernel's time over ``REFERENCE_S``. Gated op
times are therefore seconds on a host where the kernel takes
``REFERENCE_S``; the raw times are printed beside them. The kernel mixes
interpreter work and small numpy calls, like photonsteer itself. It stays on
one thread, so the wake-up latency of idle BLAS threads does not leak into
it, and it never changes; only the cache state an op leaves behind moves it,
by a few percent.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.002

_A = np.random.default_rng(0).random((16, 16)) + 16.0 * np.eye(16)
_B = np.ones(16)
_V = np.random.default_rng(1).random(20000)


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(100):
        np.linalg.solve(_A, _B)
    np.sort(np.exp(_V))
    return time.perf_counter() - start


def slowdowns(kernel_times: list) -> list:
    """Slowdown around op i, from the kernel runs just before and after it.

    ``kernel_times[i]`` ran before op i and ``kernel_times[i + 1]`` after it;
    the median of the four nearest runs damps the kernel's own jitter.
    """
    n = len(kernel_times) - 1
    return [statistics.median(kernel_times[max(0, i - 1): i + 3]) / REFERENCE_S for i in range(n)]
