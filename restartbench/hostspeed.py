"""Host-speed probe that turns wall times into host-adjusted seconds.

On a shared VM, speed swings by tens of percent within a minute, because
other tenants use the same cores and memory. ``calibrate()`` times a
fixed kernel right before and right after every timed phase (untimed);
the phase's ``factor`` is how much slower than the reference host the
kernel ran then, and a host-adjusted time is the wall time divided by
it. The kernel runs no code of the program, so a program change moves
adjusted times in proportion to how it moves wall times.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

# calibrate() on the reference host, a 2-vCPU KVM Xeon guest with
# Python 3.11.7 and numpy 2.4.6: the median of 200 calls made 50 ms
# apart in an otherwise idle process.
CALIBRATION_S = 0.020
_BUFFERS: List[np.ndarray] = []


def calibrate() -> float:
    """Seconds the kernel takes now: an interpreter loop plus eight 8 MiB
    numpy copies, the two kinds of work a restart spends its CPU on."""
    if not _BUFFERS:
        src = np.ones(1 << 21, dtype=np.float32)
        _BUFFERS.extend((src, np.empty_like(src)))
    src, dst = _BUFFERS
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    for _ in range(8):
        np.copyto(dst, src)
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Host slowness over an interval from the probes that bracket it."""
    return (before + after) / (2 * CALIBRATION_S)
