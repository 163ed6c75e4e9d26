"""Seeded latency model and the call-counting backend wrapper used by every workload.

Each simulated delay is a pure function of (seed, case_id, agent_role, attempt),
where attempt is the ordinal of the call for that (case_id, agent_role) on one
wrapper. The engine only repeats a (case, role) call sequentially inside one
case-run, so the schedule does not depend on call order or on concurrency.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import threading
import time
from collections import Counter

_NORMAL = statistics.NormalDist()
SIGMA = 0.2  # log-normal spread of the seeded jitter


class LatencyModel:
    """Log-normal delay per call: `median_ms` for every role, SIGMA of seeded jitter."""

    def __init__(self, seed: int, median_ms: float = 50.0):
        self.seed = seed
        self.median_ms = median_ms

    def delay_s(self, case_id: str, agent_role: str, attempt: int) -> float:
        if self.median_ms <= 0:
            return 0.0
        key = f"{self.seed}\x1f{case_id}\x1f{agent_role}\x1f{attempt}".encode()
        u = (int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") + 0.5) / 2**64
        return self.median_ms / 1000.0 * math.exp(SIGMA * _NORMAL.inv_cdf(u))


class SimulatedBackend:
    """Sleep for the model's delay, then delegate; counts calls made and completed.

    `inner` is public so a caller can swap in fresh script state between cases
    while the attempt ordinals keep counting.
    """

    def __init__(self, inner, model: LatencyModel):
        self.inner = inner
        self.model = model
        self.attempts: Counter = Counter()
        self.completed = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return sum(self.attempts.values())

    def complete(self, request, case_id: str = "", agent_role: str = "") -> str:
        with self._lock:
            self.attempts[(case_id, agent_role)] += 1
            attempt = self.attempts[(case_id, agent_role)]
        delay = self.model.delay_s(case_id, agent_role, attempt)
        if delay:
            time.sleep(delay)
        text = self.inner.complete(request, case_id=case_id, agent_role=agent_role)
        with self._lock:
            self.completed += 1
        return text
