"""A fixed reference computation that measures how fast the host runs now.

The benchmark host is shared, and its speed drifts by tens of percent over
minutes. Each untraced worker runs `calibrate()` in its own process right
after the program returns, and the end-to-end timings are divided by its
time and multiplied by `REFERENCE_S`: drift slows the program and the
calibration alike and cancels, while a change to the program does not
touch the calibration. See README.md for the measurements.

The work is plain-numpy SGD on an MLP with the workload's own shapes
(input, hidden and feature widths, classes, batch size), so it has the
same mix of per-call overhead and matmul time as the program's hot loop
but shares no code with it. Each workload sets the number of steps so
that the calibration takes about `REFERENCE_S` on the host the benchmark
was built on.
"""
from __future__ import annotations

import time

import numpy as np

# Seconds the calibration takes in a worker on a host of reference speed
# (about its median on the 2-CPU host the benchmark was built on); a run on
# such a host reports its timings unscaled.
REFERENCE_S = 0.15


def calibrate(dims, classes: int, batch: int, steps: int) -> float:
    """Seconds taken by `steps` fixed SGD steps of a ReLU MLP with layer
    widths `dims` and a fixed linear classifier over `classes`."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, dims[0]))
    y = rng.integers(0, classes, batch)
    ws = [rng.standard_normal((a, b)) * 0.1 for a, b in zip(dims, dims[1:])]
    frame = rng.standard_normal((dims[-1], classes))
    rows = np.arange(batch)
    start = time.perf_counter()
    for _ in range(steps):
        acts = [x]
        for w in ws:
            acts.append(np.maximum(acts[-1] @ w, 0.0))
        z = acts[-1] @ frame
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        g = p @ frame.T
        for i in range(len(ws) - 1, -1, -1):
            g = g * (acts[i + 1] > 0)
            grad = acts[i].T @ g
            g = g @ ws[i].T
            ws[i] -= 1e-4 * grad
    return time.perf_counter() - start
