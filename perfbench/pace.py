"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the core itself slows down for seconds to minutes at a time
(CPU time equals wall time, so the process is not descheduled): operations
of one run fall into a fast and a slow mode about 1.6x apart, and the share
of each moves from run to run.  The benchmark runs this kernel, untimed,
after every operation, and divides each operation's wall time by the mean
of the kernel's times just before and just after it.  Multiplied by
``NOMINAL_MS``, that gives the operation's latency on a host that runs the
kernel in ``NOMINAL_MS`` (about the quiet speed of a 2-core x86-64 VM).

The kernel mixes what mdnn spends its time on: the last five radix-2
butterfly stages over a batch of 256 frames of 1024 points (a 4 MB array,
larger than a core's L2, as ``dsp``'s FFT over a clip's 778 frames is), all
ten stages over 32 frames (many small NumPy calls, as a per-sample training
loop makes), a small GEMM and an interpreted Python loop.  Its inputs are fixed, so its
work is the same on every run and every commit; it calls nothing in mdnn.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_MS = 16.0

_rng = np.random.default_rng(0)
_LARGE = _rng.random((256, 1024)) + 1j * _rng.random((256, 1024))
_SMALL = _rng.random((32, 1024)) + 1j * _rng.random((32, 1024))
_TWIDDLE = [np.exp(-1j * np.pi * np.arange(h) / h) for h in (1 << k for k in range(10))]
_A = _rng.random((160, 160))
_B = _rng.random((160, 160))


def _butterflies(x, twiddles):
    x = x.copy()
    for tw in twiddles:
        h = tw.size
        v = x.reshape(x.shape[0], -1, 2 * h)
        t = v[..., h:] * tw
        v[..., h:] = v[..., :h] - t
        v[..., :h] += t
    return x


def _kernel() -> float:
    large = _butterflies(_LARGE, _TWIDDLE[5:])
    small = _butterflies(_SMALL, _TWIDDLE)
    acc = 0
    for k in range(3000):
        acc += k * k
    return float(abs(large[0, 0]) + abs(small[0, 0])) + float((_A @ _B)[0, 0]) + acc


def reference_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
