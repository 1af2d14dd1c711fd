"""Round bookkeeping, the host reference loop and host-adjusted times.

Every workload runs in rounds of identical operations.  This host's speed
drifts by tens of percent within seconds, so raw wall times of the same
work spread too widely to compare two commits.  The benchmark therefore
times a fixed reference loop (numpy small-array work, an interpreter loop
and rational arithmetic; no mopkit code) at the start of a round and after
every call that brings the work since the last pass to REF_EVERY_S.  Each
call's wall time is reported scaled by REF_NOMINAL_S / (the mean of the
reference passes before and after it).  A reference sampled that densely
drifts with the work, so the scaled time stays put; the raw time is kept
alongside and printed on stderr.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

#: the reference loop's median time on the calibration host; adjusted
#: times are expressed in seconds of that host
REF_NOMINAL_S = 0.020
#: work between two reference passes
REF_EVERY_S = 0.1


def ref_loop() -> float:
    """Time one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    x = np.random.default_rng(12345).random(64)
    acc = 0.0
    for i in range(1000):
        acc += float(np.log(np.abs(x - x[i % 64] + 1.5)).sum())
    s = 0.0
    for i in range(60_000):
        s += (i * 0.5) % 7.0
    f = Fraction(1, 3)
    for i in range(1, 400):
        f = (f * Fraction(2 * i + 1, i + 7) + 1) / 3
        if f.denominator > 10 ** 60:
            f = Fraction(f.numerator % 10 ** 30 + 1, f.denominator % 10 ** 30 + 1)
    d = {}
    for i in range(15_000):
        d[i % 97] = d.get(i % 97, 0) + i * i
    return time.perf_counter() - t0


class Round:
    def __init__(self):
        self.raw = 0.0          # wall time of the timed calls
        self.adjusted = 0.0     # the same, host-adjusted
        self.since_ref = 0.0
        self.pending = []       # (seconds, keys) since the last reference pass
        self.refs = []
        self.layer = defaultdict(float)  # adjusted seconds, counts and maxima
        self.attempted = 0
        self.failed = 0


class Session:
    """Runs timed calls and collects per-round figures."""

    def __init__(self):
        self.rounds = []
        self.errors = []    # wrong outputs: the run is not correct
        self.failures = []  # operations that raised or exited non-zero

    def start_round(self):
        self.rounds.append(Round())
        self.ref()

    @property
    def cur(self) -> Round:
        return self.rounds[-1]

    def ref(self):
        """Time a reference pass; host-adjust the calls made since the last one.

        Returns the adjustment factor applied (None when nothing was pending).
        """
        t = ref_loop()
        r = self.cur
        factor = None
        if r.pending:
            factor = 2.0 * REF_NOMINAL_S / (r.refs[-1] + t)
            for seconds, keys in r.pending:
                r.adjusted += seconds * factor
                for k in keys:
                    r.layer[k] += seconds * factor
            r.pending = []
        r.refs.append(t)
        r.since_ref = 0.0
        return factor

    def end_round(self):
        self.ref()

    def _account(self, seconds, keys):
        """Record one timed call; returns the factor if it closed a segment."""
        r = self.cur
        r.raw += seconds
        r.since_ref += seconds
        r.pending.append((seconds, keys))
        return self.ref() if r.since_ref >= REF_EVERY_S else None

    def call(self, keys, fn, *args, **kwargs):
        """Time fn(*args) as one operation; its time goes to every key.

        An exception counts the operation as failed and returns None.
        """
        r = self.cur
        r.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._account(time.perf_counter() - t0, ())
            r.failed += 1
            self.failures.append(f"{getattr(fn, '__name__', fn)} raised "
                                 f"{type(exc).__name__}: {exc}")
            return None
        self._account(time.perf_counter() - t0, keys if isinstance(keys, tuple) else (keys,))
        return out

    def add_op(self, seconds, keys=(), failed=False):
        """Account one operation timed elsewhere (a subprocess).

        Returns its host-adjusted time when it is at least REF_EVERY_S long
        (then it closes its own segment), else None.
        """
        self.cur.attempted += 1
        self.cur.failed += int(failed)
        factor = self._account(seconds, keys)
        return None if factor is None else seconds * factor

    def count(self, key, value=1):
        self.cur.layer[key] += value

    def maximum(self, key, value):
        self.cur.layer[key] = max(self.cur.layer.get(key, value), value)

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)
        return ok

    # -- aggregation over measured rounds (round 0 is the warm-up) --------

    @property
    def measured(self):
        return self.rounds[1:] or self.rounds

    def median(self, attr):
        return statistics.median(getattr(r, attr) for r in self.measured)

    def layer_median(self, key):
        return statistics.median(r.layer.get(key, 0.0) for r in self.measured)

    def ref_median(self):
        return statistics.median(t for r in self.rounds for t in r.refs)

    @property
    def attempted(self):
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self):
        return sum(r.failed for r in self.rounds)
