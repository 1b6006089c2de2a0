"""Per-tenant token-bucket rate limiting with structured backpressure.

One :class:`TokenBucket` per tenant: ``burst`` tokens of capacity,
refilled continuously at ``rate`` tokens/second.  A submission costs one
token; an empty bucket yields ``(False, retry_after_s)`` where
``retry_after_s`` is the exact time until one token exists again — the
server returns it verbatim in the ``rate_limited`` error envelope so
clients can sleep precisely instead of guessing.

The clock is injectable (monotonic by default) which keeps the tests
deterministic: they drive a fake clock instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..obs.metrics import REGISTRY

#: Default sustained submission rate (requests per second per tenant).
DEFAULT_RATE = 10.0

#: Default burst capacity (requests) per tenant.
DEFAULT_BURST = 20


def _check_limits(rate: float, burst: int) -> None:
    """Refuse limits a bucket cannot run on: it must refill (``rate``
    > 0) and hold at least one submission's token (``burst`` >= 1)."""
    if not rate > 0 or burst < 1:
        raise ValueError("rate must be > 0 and burst >= 1")


class TokenBucket:
    """One tenant's refillable budget; thread-safe."""

    def __init__(self, rate: float = DEFAULT_RATE,
                 burst: int = DEFAULT_BURST,
                 clock: Callable[[], float] = time.monotonic):
        _check_limits(rate, burst)
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, cost: float = 1.0) -> tuple[bool, float]:
        """Spend *cost* tokens if available.

        Returns ``(True, 0.0)`` on success, or ``(False, retry_after_s)``
        with the seconds until *cost* tokens will have refilled.
        """
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= cost:
                self._tokens -= cost
                return True, 0.0
            deficit = cost - self._tokens
            return False, deficit / self.rate

    @property
    def tokens(self) -> float:
        """Current token balance (refreshed to now)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class RateLimiter:
    """Token buckets keyed by tenant, created lazily with shared limits."""

    def __init__(self, rate: float = DEFAULT_RATE,
                 burst: int = DEFAULT_BURST,
                 clock: Callable[[], float] = time.monotonic):
        _check_limits(rate, burst)
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's bucket, created on first sight."""
        with self._lock:
            b = self._buckets.get(tenant)
            if b is None:
                b = self._buckets[tenant] = TokenBucket(
                    self.rate, self.burst, self._clock)
            return b

    def check(self, tenant: str, cost: float = 1.0) -> tuple[bool, float]:
        """One admission decision; rejections count into the registry."""
        ok, retry_after = self.bucket(tenant).try_acquire(cost)
        if ok:
            REGISTRY.inc("serve.ratelimit.admitted")
        else:
            REGISTRY.inc("serve.ratelimit.rejected")
        return ok, retry_after

    def snapshot(self) -> dict[str, float]:
        """Current balance per known tenant (stats endpoint)."""
        with self._lock:
            buckets = dict(self._buckets)
        return {tenant: round(b.tokens, 3)
                for tenant, b in sorted(buckets.items())}
