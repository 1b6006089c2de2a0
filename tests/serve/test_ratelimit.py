"""Token-bucket rate limiting under an injectable clock."""

import pytest

from repro.serve import EvalServer, ServeConfig
from repro.serve.ratelimit import RateLimiter, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, s):
        self.now += s


def test_burst_then_reject_with_retry_hint():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert all(bucket.try_acquire()[0] for _ in range(3))
    ok, retry = bucket.try_acquire()
    assert not ok
    # One token refills in 1/rate seconds.
    assert 0.0 < retry <= 0.5


def test_refill_restores_admission():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
    assert bucket.try_acquire()[0] and bucket.try_acquire()[0]
    assert not bucket.try_acquire()[0]
    clock.advance(0.5)              # exactly one token at 2/s
    assert bucket.try_acquire()[0]
    assert not bucket.try_acquire()[0]


def test_refill_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
    clock.advance(1000.0)
    assert bucket.tokens <= 2.0


def test_limiter_isolates_tenants():
    clock = FakeClock()
    limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
    assert limiter.check("alice")[0]
    ok, retry = limiter.check("alice")
    assert not ok and retry > 0
    # Bob's bucket is untouched by Alice's exhaustion.
    assert limiter.check("bob")[0]


def test_limiter_snapshot_lists_known_tenants():
    clock = FakeClock()
    limiter = RateLimiter(rate=1.0, burst=5, clock=clock)
    limiter.check("alice")
    snap = limiter.snapshot()
    assert set(snap) == {"alice"}
    assert 0.0 <= snap["alice"] <= 5.0


@pytest.mark.parametrize("rate, burst", [
    (0.0, 1), (-1.0, 1), (float("nan"), 1), (1.0, 0),
], ids=["rate=0", "rate=-1", "rate=nan", "burst=0"])
def test_limiter_refuses_limits_no_bucket_can_run_on(rate, burst):
    # Refused up front, not at a tenant's first submission.
    with pytest.raises(ValueError, match="rate must be > 0 and burst >= 1"):
        RateLimiter(rate=rate, burst=burst)


def test_server_with_a_zero_rate_fails_before_it_listens(tmp_path):
    with pytest.raises(ValueError, match="rate must be > 0"):
        EvalServer(ServeConfig(port=0, cache_dir=tmp_path, rate=0))
