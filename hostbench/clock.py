"""CPU time scaled to a reference host speed.

On a shared VM the CPU seconds a fixed piece of work takes drift with the
load other tenants put on the host: identical ``directory_fleet`` workers
took 2.0-3.6 CPU seconds within a few minutes, and the elapsed-time
medians of two sets of the same runs differed by up to 32 %.  So a
worker times a fixed calibration loop between short stretches of its
work — about every 25-90 ms of CPU in the timed phase — and scales each
stretch by ``CAL_REF_S`` over the mean of the two calibration times
around it.  Times are then in seconds at the reference speed: what the
work would take on the host whose calibration loop takes ``CAL_REF_S``.
On that VM this cut the spread of a worker's timed phase from 10-16 % to
2-4 % (coefficient of variation over 12 identical workers).

The calibration loop is benchmark code: a change to the program does
not change its work.
"""

import time

#: CPU seconds of one :func:`calibrate` at the reference speed: about the
#: median on a 2-vCPU Intel Xeon VM, so reference seconds read close to
#: that host's CPU seconds
CAL_REF_S = 0.004
CAL_ROUNDS = 15_000
#: virtual seconds per stretch of :meth:`ScaledClock.run`
STRETCH_S = 1.0

_TABLE = list(range(1024))
_COUNTS = dict.fromkeys(range(512), 0)


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop.  It allocates no object
    the garbage collector tracks, so it does not move the program's
    collections."""
    table, counts = _TABLE, _COUNTS
    x = 0
    t0 = time.process_time()
    for i in range(CAL_ROUNDS):
        x = table[(x + i) & 1023]
        counts[x & 511] += 1
        x = (x * 31 + 7) & 1023
    return time.process_time() - t0


class ScaledClock:
    """Reference seconds of this process's CPU time, calibration excluded.

    Create it first thing in the process: the CPU time spent before that
    (interpreter start-up) is scaled by the first calibration alone.
    """

    def __init__(self) -> None:
        self._cal = calibrate()
        self._mark = time.process_time()
        self.total = (self._mark - self._cal) * CAL_REF_S / self._cal

    def mark(self) -> float:
        """End the current stretch and return :attr:`total`."""
        now = time.process_time()
        cal = calibrate()
        self.total += (now - self._mark) * 2 * CAL_REF_S / (self._cal + cal)
        self._cal = cal
        self._mark = time.process_time()
        return self.total

    def run(self, sim, until: float) -> None:
        """``sim.run(until=until)`` in stretches of ``STRETCH_S`` virtual
        seconds, marking after each.  Stopping and resuming the kernel
        keeps the order of events, so the simulation is unchanged."""
        while sim.now < until:
            sim.run(until=min(until, sim.now + STRETCH_S))
            self.mark()

    def wait(self, sim, event):
        """``sim.run(until=event)`` in stretches of at most ``STRETCH_S``
        virtual seconds, marking after each; returns the event's value."""
        from repro.sim import AnyOf  # the clock is made before any import
        while not event.processed:
            sim.run(until=AnyOf(sim, [event, sim.timeout(STRETCH_S)]))
            self.mark()
        return event.value
