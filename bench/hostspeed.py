"""Host-speed calibration of the end-to-end timings.

On a shared host the speed of one thread moves between levels as much as
twofold, in phases of seconds to minutes, because of work outside this
process.  Host seconds then say more about the neighbours than about the
program.  While ``HostSpeed`` is entered, an interval timer interrupts the
workload every ``PERIOD`` seconds and runs a fixed calibration kernel on
the same thread, between two bytecodes of whatever the workload is doing:
a pure-Python loop and a few Ed25519 verifications, the two kinds of work
the simulator spends its time on.  The kernel's duration measures how fast
the host runs at that moment.

A timed span is given as ``(start, end)`` from ``time.perf_counter``.
``host_s`` is its length without the time the kernel took inside it.
``reference_s`` converts that into reference seconds: host seconds times
``REFERENCE_KERNEL_S`` over the kernel durations sampled within
``WINDOW`` seconds of the span, averaged as rates.  A reference second is
the time in which the host runs the kernel 250 times.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from array import array

from cryptography.hazmat.primitives.asymmetric.ed25519 import \
    Ed25519PrivateKey

PERIOD = 0.05
WINDOW = 0.05
REFERENCE_KERNEL_S = 0.004
LOOP_STEPS = 15000
VERIFICATIONS = 12

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(256)) + bytes(60)
_SIGNATURE = _KEY.sign(_MESSAGE)


_SLOTS = [0] * 256


def kernel() -> int:
    """The fixed calibration work, 3 to 5 ms in all on a 2.1 GHz Xeon
    vCPU, about half interpreter work and half Ed25519 verification.  It
    allocates no container, so that it never sets off a garbage collection
    of the workload's objects."""
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
        _SLOTS[i & 255] = total
    for _ in range(VERIFICATIONS):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return total


class HostSpeed:
    """``with HostSpeed() as speed:`` samples the host's speed."""

    def __init__(self):
        self.starts = array("d")     # perf_counter at each sample
        self.kernel_s = array("d")   # the kernel's duration
        self.spent_s = array("d")    # the handler's whole duration
        self._spent_before = [0.0]
        self._old = None
        self._busy = False

    def sample(self, _signum=None, _frame=None) -> None:
        """Run the kernel now and record how long it took.  The timer calls
        this; a workload may too, right before and after a short span."""
        if self._busy:          # the timer fired inside a sample
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.kernel_s.append(time.perf_counter() - start)
        self.starts.append(start)
        self.spent_s.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._spent_before = [0.0, *itertools.accumulate(self.spent_s)]

    def host_s(self, span: tuple[float, float]) -> float:
        """Host seconds of the span, without the samples taken inside it."""
        start, end = span
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        return (end - start) - (self._spent_before[j] - self._spent_before[i])

    def reference_s(self, span: tuple[float, float]) -> float:
        start, end = span
        i = bisect.bisect_left(self.starts, start - WINDOW)
        j = bisect.bisect_right(self.starts, end + WINDOW)
        if i == j:      # no sample near: the nearest one
            j = min(max(i, 1), len(self.starts))
            i = j - 1
        rate = statistics.fmean(REFERENCE_KERNEL_S / k
                                for k in self.kernel_s[i:j])
        return self.host_s(span) * rate

    def summary(self) -> str:
        ms = sorted(k * 1e3 for k in self.kernel_s)
        q = statistics.quantiles(ms, n=4)
        return (f"calibration kernel {len(ms)} samples: median "
                f"{statistics.median(ms):.3f} ms, quartiles {q[0]:.3f} "
                f"{q[2]:.3f} ms, min {ms[0]:.3f} ms, max {ms[-1]:.3f} ms")
