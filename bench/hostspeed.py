"""Host-speed probe: turns measured times into times at a reference speed.

The machine this benchmark was built on (a 2-vCPU VM shared with other
tenants) switches between speeds about 1.6x apart, for spans of a fraction
of a second to minutes.  One solve_small pass, same inputs, took 4.7 to
6.6 s over eight fresh processes, one tower_deep pass 7.2 to 9.9 s; CPU time
tracks wall time, so the process is not waiting, it runs slower.  No number
of repetitions inside a run's time budget averages that out.

So while ops run, a fixed piece of work (a big-integer product and a small
dict, about 1 ms) is timed: before every op, and every ``INTERVAL_S`` of CPU
time from a SIGPROF handler.  An op's time is scaled by ``REF_S / mean`` of
the samples taken during it and next to it, which is the time the op would
take on a host where the probe takes ``REF_S``.  On that VM this cut the
spread (interquartile range / median) of those pass times from 0.17 and
0.24 to 0.02 and 0.04.  Probe time is subtracted from the op it interrupted.

A probe sees only the speed of its own process, so set-up and each
cli_oneshot command sample the host in the process that does the work, from
its start.
"""

import signal
import time

INTERVAL_S = 0.02   # CPU time between two samples taken inside ops
REF_S = 1.0e-3      # the probe's time on the reference host
NEIGHBOURS = 4      # samples on each side of an op that also count for it

# Prefix of the last stderr line of a CLI process started through worker.py,
# which carries its samples.
CLI_MARK = "@@bench-cli "

_A = 3 ** 30000 | 1
_B = 5 ** 20000 | 1


def probe_once():
    """Time one fixed piece of work."""
    t0 = time.perf_counter()
    prod = _A * _B
    table = {i: prod for i in range(300)}
    del table
    return time.perf_counter() - t0


class HostProbe:
    """Samples of the probe, and the time they took out of the ops."""

    def __init__(self, tracer=None):
        self.samples = []
        self.total = 0.0
        self.tracer = tracer

    def sample(self):
        d = probe_once()
        self.samples.append(d)
        self.total += d
        if self.tracer is not None:
            self.tracer.exclude(d)

    def _on_prof(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, first=0, end=None):
        """REF_S over the mean of samples[first - NEIGHBOURS:end + NEIGHBOURS]."""
        end = len(self.samples) if end is None else end
        window = self.samples[max(0, first - NEIGHBOURS):end + NEIGHBOURS]
        return REF_S / (sum(window) / len(window))
