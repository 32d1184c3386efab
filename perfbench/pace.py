"""Host-speed reference: scales measured times to one nominal host speed.

On a shared host the speed of pure-Python code drifts by up to 2x, over a
few seconds as well as over minutes, in CPU time as much as in wall time,
so it is not preemption that a CPU clock could leave out.  Ten runs a few
minutes apart then differ more from the host than from the code.

The benchmark therefore samples the host's speed while it measures: a
timer signal runs a fixed reference job every ``INTERVAL_S`` of wall time,
inside whatever item is running, and the item's clock (``Pacer.clock``)
leaves the job's time out.  Each measured time is then multiplied by
``REF_NOMINAL_S`` over the mean reference time of the samples taken within
``WINDOW_S`` of it, which reads it at the recording machine's median
speed.  The job is shaped like the package's hot path (tuple cache states,
dict memos, small calls).  It is part of the benchmark, not of the
package, so no change to the package can speed it up.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

# The reference job's median time on the recording machine (Python 3.11,
# see README.md); scaled times read as seconds on that machine.
REF_NOMINAL_S = 0.0087
# Wall time between two samples while sampling is on: about 2% of a run.
INTERVAL_S = 0.25
# Set-ups take a tenth of a second each, so they are sampled more densely.
SETUP_INTERVAL_S = 0.05
# A timed span is scaled by the samples taken within this much of it.
WINDOW_S = 1.0
_ACCESSES = [(i * 7 + i // 3) % 11 for i in range(48)]


def _access(state: tuple[int, ...], line: int) -> tuple[int, ...]:
    if line in state:
        return (line,) + tuple(x for x in state if x != line)
    return (line,) + state[:-1]


def _job() -> int:
    memo: dict[tuple[int, ...], int] = {}
    state = (20, 21, 22, 23)
    for _ in range(100):
        s = state
        for line in _ACCESSES:
            s = _access(s, line)
            memo[s] = memo.get(s, 0) + 1
        state = state[1:] + state[:1]
    return len(memo)


class Pacer:
    """Reference samples, and the time they took away from the items."""

    def __init__(self):
        self.refs: list[float] = []
        self.stamps: list[float] = []  # perf_counter() at each sample's start
        self.stolen = 0.0

    def sample(self, *_signal_args) -> None:
        """Runs the job once, with the collector off so that it does not
        collect the items' garbage on the job's time."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _job()
        spent = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.refs.append(spent)
        self.stamps.append(start)
        self.stolen += spent

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in samples.  Reads
        again when a sample ran between the two reads."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    @contextlib.contextmanager
    def sampling(self, interval: float = INTERVAL_S):
        """One sample now and one every ``interval`` seconds of wall time,
        from SIGALRM, until the block ends."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, spans) -> list[float]:
        """Each span ``(start, end, seconds)``, with start and end read from
        ``time.perf_counter()``, as its seconds at the nominal speed: times
        REF_NOMINAL_S over the mean of the samples taken within WINDOW_S of
        the span, or of all samples when none was."""
        out = []
        for start, end, seconds in spans:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
            near = self.refs[lo:hi] or self.refs
            out.append(seconds * REF_NOMINAL_S / statistics.fmean(near))
        return out
