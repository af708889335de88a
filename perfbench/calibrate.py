"""Host-speed calibration: a fixed numpy kernel that never touches the program.

The speed of the shared host this benchmark was tuned on changes by up to a
factor of two between stretches of tens of seconds, and its two cores do so
apart from each other. Every timed section is therefore bracketed by runs of
this kernel in the same process, so on the same core, and the section's time
is divided by `host_factor` of the kernel times next to it.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 3000
# kernel time of a median run on the 2-core Xeon host the benchmark was
# tuned on; it only sets the scale of the normalized numbers
REFERENCE_S = 0.18
# the program's time moves as the kernel's time to this power: the slope of
# log op time on log kernel time over the ops of five node-sweep runs on the
# tuning host was 0.62 (correlation 0.78)
SENSITIVITY = 0.62


def kernel() -> float:
    """Small complex matrix products and checks, the shape of the program's
    hot loops; returns the seconds taken."""
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    start = time.perf_counter()
    rho = np.eye(4, dtype=complex) * 0.25
    for _ in range(REPEATS):
        op = np.kron(flip, np.eye(2))
        rho = 0.5 * (op @ rho @ op.conj().T + rho)
        np.allclose(rho, rho.conj().T)
    return time.perf_counter() - start


def host_factor(*kernel_s: float) -> float:
    """How much slower than at REFERENCE_S the host runs the program, from
    kernel times taken next to the timed section."""
    return (sum(kernel_s) / len(kernel_s) / REFERENCE_S) ** SENSITIVITY
