"""A fixed reference computation that measures the host's speed while a
unit of work runs.

The benchmark runs on a few cores of a shared host whose speed drifts, on
every scale from a second to many minutes: the same unit of work takes up
to 1.5 times as long a few minutes later. So the time metrics are reported
in multiples of one repetition of this reference computation, timed while
the unit runs: every INTERVAL_S seconds of wall time a SIGALRM handler
interrupts the unit between two Python bytecodes, times one repetition,
and the unit's time excludes what the handler took. The repetitions thus
sample the host's speed at the same moments as the unit's own work.

The computation uses only Python and NumPy, never hadcl, so a change to the
program cannot change it. Its mix follows the program's hot paths: a small
MLP training step at B=50 (per-call overhead), B=512 matmuls (FLOPs), and
score scans, text formatting and JSON (report I/O). One repetition takes
about 35 ms on a 2-vCPU cloud VM, so it costs the unit about 9% more time.
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np

INTERVAL_S = 0.4


class Reference:
    """The reference computation on inputs fixed by a constant seed."""

    def __init__(self):
        rng = np.random.default_rng(20210816)
        self.x50 = rng.standard_normal((50, 12))
        self.w = [rng.standard_normal(s) * 0.1 for s in ((12, 96), (96, 96), (96, 2))]
        self.x512 = rng.standard_normal((512, 16))
        self.v = [rng.standard_normal(s) * 0.1 for s in ((16, 64), (64, 64))]
        self.scores = rng.random(1500)
        self.labels = rng.integers(0, 2, 1500)
        self.value = self.once()

    def once(self) -> float:
        acc = 0.0
        w1, w2, w3 = (w.copy() for w in self.w)
        for _ in range(150):
            h1 = np.maximum(self.x50 @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            o = h2 @ w3
            e = np.exp(o - o.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            w2 -= 1e-3 * (h1.T @ ((p @ w3.T) * (h2 > 0)))
            w3 -= 1e-3 * (h2.T @ p)
            acc += float(p[0, 0])
        v1, v2 = self.v
        for _ in range(40):
            h = np.maximum(self.x512 @ v1, 0.0) @ v2
            acc += float((h.T @ h).sum())
        s, y = self.scores, self.labels
        for thr in s[:150]:
            acc += float(((s >= thr) & (y == 1)).sum())
        text = "".join(f"{a!r}\t{b!r}\n" for a, b in zip(s.tolist(), s[::-1].tolist()))
        acc += len(json.loads(json.dumps({"text": text, "scores": s.tolist()}))["scores"])
        return acc


class Sampler:
    """While active, times one repetition of the reference computation every
    INTERVAL_S seconds of wall time. `walls`/`cpus` hold the repetitions'
    seconds; `spent_wall`/`spent_cpu` what the handler took in all, which
    the caller takes out of the unit's time."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.walls, self.cpus = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self.stable = True
        self._previous = None

    def _tick(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.stable &= self.reference.once() == self.reference.value
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
