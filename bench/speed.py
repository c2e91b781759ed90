"""Host-speed probe: a fixed reference loop timed while a job runs.

The cores of a shared host change speed by up to about 2x in phases of a
few seconds, and every wall-clock time follows them. A ``Probe`` fires
every ``PERIOD`` seconds on SIGALRM and times ``ref_loop``, a fixed piece
of pure Python that calls nothing of memrelax, so it runs at whatever
speed the core has at that moment. ``Probe.scaled`` turns a wall time
into seconds on a host where the loop takes ``REF_S``:

    scaled = (wall - probe time) * REF_S / mean probe sample

Pure Python keeps the probe free of numpy, so a set-up can be probed from
before numpy is imported, and on this host it tracked the job times of
all three workloads more closely than a loop of small numpy calls did.
"""
from __future__ import annotations

import math
import signal
import time

PERIOD = 0.01
# time of one ref_loop on an unloaded core of the host the baseline was
# recorded on (2-vCPU KVM guest, Intel Xeon Sapphire Rapids, Python 3.11)
REF_S = 5.0e-5


def _term(x: float, a: float) -> float:
    return a * x * x - math.log1p(x)


def ref_loop() -> float:
    s = 0.0
    for i in range(300):
        s += _term(i * 1e-3, 0.5)
    return s


class Probe:
    """Context manager that samples ref_loop every PERIOD seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _fire(self, signum, frame) -> None:
        t0 = time.perf_counter()
        ref_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> Probe:
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.spent = math.fsum(self.samples)
        if not self.samples:
            # a block shorter than PERIOD: one sample right after it
            self._fire(None, None)

    def scaled(self, wall: float) -> float:
        """A wall time taken inside the block, less the probe's own time,
        in seconds on a core where ref_loop takes REF_S."""
        mean = math.fsum(self.samples) / len(self.samples)
        return (wall - self.spent) * REF_S / mean
