"""Host-speed probe: timings in reference-speed seconds.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over minutes (neighbours on the same cores and
caches), while the work a run does repeats exactly.  Medians and
minima over a run do not remove that drift: a whole 30 s run can sit
in a slow stretch.  So while an untraced run is measured, a profiling
timer interrupts the program every :data:`INTERVAL_S` of CPU time and
runs a fixed reference kernel, timed on its own.  The kernel samples
the host's speed at the same moments the program runs.  Code does not
all slow down alike (interpreter-bound dict work more than C hashing),
so each workload names the kernel that mirrors its own hot path.

:meth:`SpeedProbe.clock` is ``perf_counter`` minus the time spent in
the kernel, so an interval measured with it is the program's own time.
:meth:`SpeedProbe.scale` turns such an interval into reference-speed
seconds: it multiplies by ``REFERENCE_CALL_S / mean kernel call`` over
the same interval, i.e. it reports what the interval would have taken
on a host where one kernel call takes :data:`REFERENCE_CALL_S`.

:class:`NullProbe` has the same interface, runs nothing and scales by 1;
traced runs use it, so the ledger times the program alone.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Callable, Tuple

#: CPU time between two kernel calls.
INTERVAL_S = 0.004
#: The nominal duration of one kernel call: the scale of every
#: normalised timing (about what one call takes on a quiet host).
REFERENCE_CALL_S = 0.0003
#: Kernel calls made on entry, so the first interval already has a mean.
PRIMING_CALLS = 20

Mark = Tuple[float, int]


def interpreter_kernel(size: int = 600) -> int:
    """A fixed slice of interpreter work: hashing, dict and tuple churn,
    string building, the mix the diagnosis and stream code runs on."""
    table = {}
    for i in range(size):
        table[(i * 7919) % 509] = (i, str(i))
    total = 0
    for key, (value, text) in table.items():
        total += key ^ value + len(text)
    return total


def keyed_rng_kernel(count: int) -> float:
    """Keyed decisions the way ``FaultPlan`` makes them: a
    ``random.Random`` seeded from a string key, one draw each."""
    total = 0.0
    for i in range(count):
        total += random.Random(f"perfbench/speed/{i}").random()
    return total


def monitor_kernel() -> float:
    """The monitor's mix: mostly keyed decisions, some interpreter work
    (its ledger puts about 70% of a run in ``faults.plan``)."""
    return keyed_rng_kernel(20) + interpreter_kernel(200)


class NullProbe:
    """No probe: raw ``perf_counter`` seconds, scale 1."""

    calls = 0
    spent = 0.0

    def clock(self) -> float:
        return time.perf_counter()

    def mark(self) -> Mark:
        return (0.0, 0)

    def scale(self, mark: Mark) -> float:
        return 1.0

    def mean_call(self) -> float:
        return 0.0


class SpeedProbe(NullProbe):
    """Samples host speed with ``kernel`` on ``SIGPROF``.

    Use as a context manager; the timer and the handler are removed on
    every way out.
    """

    def __init__(self, kernel: Callable[[], object] = interpreter_kernel) -> None:
        self.kernel = kernel
        self.calls = 0
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, *_unused) -> None:
        if self._busy:  # a tick that arrives during a kernel call
            return
        self._busy = True
        started = time.perf_counter()
        self.kernel()
        self.spent += time.perf_counter() - started
        self.calls += 1
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(PRIMING_CALLS):
            self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds on ``perf_counter`` less the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def mark(self) -> Mark:
        return (self.spent, self.calls)

    def scale(self, mark: Mark) -> float:
        """Reference-speed factor over the interval since ``mark``; an
        interval too short to hold a kernel call takes the run's mean."""
        spent, calls = self.spent - mark[0], self.calls - mark[1]
        mean = spent / calls if calls else self.mean_call()
        return REFERENCE_CALL_S / mean

    def mean_call(self) -> float:
        return self.spent / self.calls
