"""Scaling of measured times to a reference host speed.

The benchmark was written on a shared 2-core host whose pure-Python speed
moves by up to 40% between states that last from under a second to tens of
seconds.  The cause is outside the process: CPU time tracks wall time, and
steal time stays small.  Such shifts move every job alike.  While a run is
timed, a fixed loop of dict updates and an in-place sort is timed before each
job and, from a SIGALRM handler, every PERIOD_S.  A job's time is scaled by
REF_S over the trimmed mean of the samples taken within WINDOW_S of it.  REF_S
is a fixed reference, about the loop's median time in an idle process on that
host (Python 3.11.7): scaled times are seconds at that speed.  Samples taken
during runs are usually slower, so scaled times read below wall times.  Only
the ratio of scaled times between runs carries meaning.

The probe time should follow the host, not the program, so the loop is kept
out of the program's memory state.  It works only on containers built at
import and on small ints, which are cached: it allocates no object the
garbage collector tracks, never starts a collection, and runs with the
collector disabled besides.  Each sample runs the loop twice and times the
second run, so the loop's data is in cache whatever the program touched
last.  bench/probe_pairs.py measures how far the probe time follows the
program.

This module imports only modules that are loaded at interpreter start-up
(`_signal`, not `signal`, which would load enum), so the set-up probe can
use it before it times the package import.
"""

import _signal
import gc
from time import perf_counter

PERIOD_S = 0.05
REF_S = 0.00011
WINDOW_S = 0.1    # samples this close to a job also describe it
MIN_SAMPLES = 5

_KEYS = [(i % 7, i % 5, i % 3) for i in range(400)]
_ACC = dict.fromkeys(_KEYS, 0)
_BUF = list(range(len(_ACC) * 2))


def _probe_loop() -> None:
    acc, keys, buf = _ACC, _KEYS, _BUF
    for i in range(400):
        key = keys[i]
        acc[key] = (acc[key] + i * 7919) % 251
    for i in range(len(buf)):
        buf[i] = (buf[i] * 7919 + i) % 251
    buf.sort()


def trimmed_mean(values) -> float:
    """Mean of the middle 80% of the values."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class SpeedSampler:
    """Speed samples, taken every PERIOD_S while the sampler is entered."""

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0  # total time spent sampling, to subtract from jobs
        self._previous = None

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe_loop()  # brings the loop's data into cache; not timed
        t0 = perf_counter()
        _probe_loop()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.stamps.append((t0 + t1) / 2)
        self.values.append(t1 - t0)
        self.spent += t1 - start

    def __enter__(self):
        self._previous = _signal.signal(_signal.SIGALRM, self.sample)
        _signal.setitimer(_signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        _signal.setitimer(_signal.ITIMER_REAL, 0)
        _signal.signal(_signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean sample time around the interval [start, end].

        The mean is taken over the middle 80% of the samples: it follows a
        change of speed during a long job, and ignores samples that an
        interrupt lengthened.
        """
        from bisect import bisect_left, bisect_right  # not at import: see the module doc

        if not self.values:
            raise RuntimeError("no speed samples were taken")
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.stamps, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.values) - MIN_SAMPLES))
            hi = min(len(self.values), lo + MIN_SAMPLES)
        return REF_S / trimmed_mean(self.values[lo:hi])
