"""Time work against a reference kernel, so a slowed-down host cancels.

The shared host runs a single thread up to twice as slow for stretches of
seconds to minutes, with no steal time to show for it. A fixed reference
kernel, which makes no opclass call, slows by nearly the same factor. So a
``HostClock`` runs the kernel before and after the timed work and, from a
SIGALRM handler, every ``interval`` seconds of wall time while it runs,
and reports the work's wall time divided by the mean kernel time: steady
where the wall time itself is not. The handler's own time is taken out of
the work's wall time. The ratio is reported in seconds, times the kernel's
nominal time: the time the work would take on a host that runs the kernel
in exactly that time.

Two kernels: ``reference_s`` for operations, and ``python_reference_s``
for set-up, which starts before numpy is imported.
"""

from __future__ import annotations

import signal
import statistics
import time

# Times of one kernel run on the reference host (Intel Xeon, 2 vCPUs,
# single-threaded OpenBLAS) when the host is not slowed down.
NOMINAL_S = 0.65e-3
PYTHON_NOMINAL_S = 0.06e-3

_matrices: list = []


def reference_s() -> float:
    """Run the operation kernel once: small complex SVDs, Hermitian
    eigensolves and products at the dims opclass works at, plus a
    pure-Python loop, the same mix of LAPACK calls and interpreter work as
    the operations, on fixed inputs. Returns its wall time in seconds."""
    import numpy as np

    if not _matrices:
        rng = np.random.default_rng(0)
        _matrices.extend(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                         for d in (4, 8, 16, 32))
    t0 = time.perf_counter()
    for a in _matrices:
        np.linalg.svd(a)
        np.linalg.eigh(a + a.conj().T)
        a @ a
    _python_loop(1000)
    return time.perf_counter() - t0


def python_reference_s() -> float:
    """Run the set-up kernel once: the pure-Python loop alone, as import
    and pool generation are mostly interpreter work."""
    t0 = time.perf_counter()
    _python_loop(1000)
    return time.perf_counter() - t0


def _python_loop(n: int) -> int:
    acc = 0
    for k in range(n):
        acc += k * k % 7
    return acc


class HostClock:
    """Times work against a kernel; use as a context manager, which
    installs the SIGALRM handler and restores the old one."""

    def __init__(self, kernel=reference_s, nominal_s=NOMINAL_S, interval=0.025, bracket=3):
        self.kernel, self.nominal_s = kernel, nominal_s
        self.interval, self.bracket = interval, bracket
        self._samples: list[float] = []
        self._spent = 0.0
        self._busy = False
        self._old = None
        self._t0 = 0.0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        return False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self._samples.append(self.kernel())
        finally:
            self._spent += time.perf_counter() - t0
            self._busy = False

    def start(self, t0: float | None = None) -> None:
        """Start timing, from ``t0`` (a perf_counter reading) if given."""
        self._samples, self._spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._t0 = time.perf_counter() if t0 is None else t0

    def stop(self, before: list[float] = ()) -> tuple[float, float]:
        """Stop timing. Returns (wall seconds without the sampling,
        normalized seconds)."""
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self._spent
        after = [self.kernel() for _ in range(self.bracket)]
        ref = statistics.fmean(list(before) + self._samples + after)
        return wall, wall / ref * self.nominal_s

    def time(self, fn):
        """Call ``fn()``. Returns (result, exception, wall seconds without
        the sampling, normalized seconds)."""
        before = [self.kernel() for _ in range(self.bracket)]
        result, error = None, None
        self.start()
        try:
            result = fn()
        except Exception as exc:  # reported to the caller as a failed operation
            error = exc
        finally:
            wall, norm = self.stop(before)
        return result, error, wall, norm
