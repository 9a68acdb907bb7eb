"""The host's speed, read off a fixed pure-Python loop.

The benchmark shares a few cores of a host whose speed for one thread
drifts by up to 1.6x over minutes (a fixed loop takes 13 ms in one stretch
and 21 ms in another), so raw times of two runs of the same code differ by
more than any bound worth setting.  The probe below is a small loop of
dict, integer and branch work, the kind of interpreter work the program
does; it touches no program data.  Run right before and after a span of
work, it gives the host's slowdown over that span, and dividing the span's
time by it gives the time at the reference speed, where the probe takes
REF_S.  Every time the benchmark reports is at the reference speed.
"""
import gc
import time

PROBE_ITERS = 12000
# the probe's time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11) at its fastest; it only sets the scale of the reported times
REF_S = 0.0025


def _loop(d):
    acc = 0
    for i in range(PROBE_ITERS):
        k = (i * 7919) % 4001
        d[k] = d.get(k, 0) + 1
        acc += d[k] if k & 1 else k
    return acc


class HostSpeed:
    """Slowdown factors of the host, each the faster of two probe runs
    over REF_S.  The probe runs with the garbage collector off, so that a
    collection of the program's heap is never charged to it."""

    def __init__(self):
        self._d = {}
        self.factors = []

    def factor(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = None
            for _ in range(2):
                t0 = time.perf_counter()
                _loop(self._d)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
        finally:
            if enabled:
                gc.enable()
        f = best / REF_S
        self.factors.append(f)
        return f

    def timed(self, fn):
        """(result, time of fn at the reference speed, raw time)."""
        before = self.factor()
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        return res, dt / ((before + self.factor()) / 2), dt
