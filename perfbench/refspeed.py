"""Seconds at a fixed reference speed, from probes taken during the pass.

The benchmark shares a host whose speed changes by tens of percent from one
second to the next, and by up to 2x from one minute to the next, so raw wall
times of one code version spread wider than any useful bound.  While a pass
runs, ``SpeedProbe`` times a small fixed kernel every ``PROBE_INTERVAL_S`` of
wall time, from a ``SIGALRM`` handler in the same thread.  Its ``clock()``
leaves out the time spent probing, and ``scale()`` turns a duration on that
clock into seconds at the speed where one probe takes ``PROBE_SECONDS``:

    reference seconds = program seconds * PROBE_SECONDS / mean probe time

The probes sample the same moments as the program, so the host's changes in
speed cancel.  The kernel mixes the operations fgindex spends its time on
(deque pushes with cancellation, list slicing and comparison, dicts keyed by
tuples, big-integer arithmetic) and does not import fgindex, so no change to
the program can move it.  A trial kernel that also built and dropped 12,000
fresh integers per probe split ``stream-join``'s scaled passes into two
groups about 30% apart, presumably because its cost followed the state of the
program's heap; the kernel here showed no such split.  Do not edit the
kernel: that would rescale every time the benchmark has recorded.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

PROBE_ROUNDS = 4000
PROBE_SECONDS = 0.002
PROBE_INTERVAL_S = 0.05
_MODULUS = (1 << 1279) - 1


def kernel():
    """One timed run of the fixed kernel; returns its elapsed seconds."""
    t0 = time.perf_counter()
    dq = deque()
    table = {}
    data = []
    big = 1
    acc = 0
    for i in range(PROBE_ROUNDS):
        x = (i * 7919) % 13 - 6 or 1
        if dq and dq[-1] == -x:
            dq.pop()
        else:
            dq.append(x)
        if len(dq) > 256:
            dq.popleft()
        key = (i & 1023, x)
        table[key] = table.get(key, 0) + 1
        data.append(x)
        if len(data) >= 96:
            if data[8:40] == data[40:72]:
                acc += 1
            acc += len(tuple(data[:48]))
            del data[:64]
        if i % 64 == 0:
            big = (big * 3**40 + i) % _MODULUS
            acc += big.bit_length()
    if acc < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - t0


class SpeedProbe:
    """Probes the host's speed while active (a context manager).

    One probe runs on entry and one on exit, so every pass has at least two.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old_handler = None

    def clock(self):
        """``time.perf_counter`` minus the time spent in probes."""
        return time.perf_counter() - self.spent

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._probe()
        return False

    def scale(self):
        """Factor from seconds on ``clock()`` to reference seconds."""
        return PROBE_SECONDS / statistics.fmean(self.samples)
