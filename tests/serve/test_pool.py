"""Work-stealing pool mechanics and the shared retry policy."""

import threading
import time

import pytest

import repro.serve.pool as pool_module
from repro.common.errors import TraceFormatError
from repro.serve import PoolClosedError, RetryPolicy, ShardTask, WorkStealingPool


class RecordingPool(WorkStealingPool):
    """Executes a stub instead of a real shard (unit-test seam)."""

    def __init__(self, *args, behavior=None, **kwargs):
        super().__init__(*args, use_processes=False, **kwargs)
        self.behavior = behavior or (lambda spec: spec)
        self.ran = []
        self._ran_lock = threading.Lock()

    def _execute(self, spec):
        out = self.behavior(spec)
        with self._ran_lock:
            self.ran.append(spec)
        return out


def collect_outcomes(n):
    results = []
    done = threading.Event()
    lock = threading.Lock()

    def on_done(outcome, error):
        with lock:
            results.append((outcome, error))
            if len(results) >= n:
                done.set()

    return results, done, on_done


def test_pool_executes_all_tasks():
    pool = RecordingPool(2).start()
    results, done, on_done = collect_outcomes(8)
    for i in range(8):
        pool.submit(ShardTask(spec=i, on_done=on_done))
    assert done.wait(timeout=5.0)
    pool.close()
    assert sorted(r[0] for r in results) == list(range(8))
    assert pool.executed == 8


def test_steal_from_longest_deque():
    # One slow worker hogs its own deque; the idle worker must steal.
    release = threading.Event()

    def behavior(spec):
        if spec == "slow":
            release.wait(timeout=5.0)
        return spec

    pool = RecordingPool(2, behavior=behavior)
    results, done, on_done = collect_outcomes(5)
    # Load worker 0's deque before threads start: round-robin would
    # deal evenly, so append directly to force the imbalance.
    pool._deques[0].append(ShardTask(spec="slow", on_done=on_done))
    for i in range(4):
        pool._deques[0].append(ShardTask(spec=i, on_done=on_done))
    pool.start()
    release.set()
    assert done.wait(timeout=5.0)
    pool.close()
    assert pool.steals > 0


def test_cancelled_tasks_are_skipped():
    pool = RecordingPool(1)
    results, done, on_done = collect_outcomes(3)
    for i in range(3):
        pool.submit(
            ShardTask(spec=i, on_done=on_done, cancelled=lambda: True)
        )
    pool.start()
    assert done.wait(timeout=5.0)
    pool.close()
    assert all(outcome is None and error is None for outcome, error in results)
    assert pool.executed == 0
    assert pool.skipped == 3


def test_transient_errors_retry_then_succeed():
    attempts = []

    def behavior(spec):
        attempts.append(spec)
        if len(attempts) < 3:
            raise OSError("nfs blip")
        return "ok"

    pool = RecordingPool(
        1,
        behavior=behavior,
        retry=RetryPolicy(retries=3, backoff_seconds=0.0),
    ).start()
    results, done, on_done = collect_outcomes(1)
    pool.submit(ShardTask(spec="s", on_done=on_done))
    assert done.wait(timeout=5.0)
    pool.close()
    assert results[0] == ("ok", None)
    assert pool.retries == 2


def test_exhausted_retries_report_error_and_pool_survives():
    def behavior(spec):
        if spec == "bad":
            raise TraceFormatError("torn")
        return spec

    pool = RecordingPool(
        1, behavior=behavior, retry=RetryPolicy(retries=1, backoff_seconds=0.0)
    ).start()
    results, done, on_done = collect_outcomes(2)
    pool.submit(ShardTask(spec="bad", on_done=on_done))
    pool.submit(ShardTask(spec="fine", on_done=on_done))
    assert done.wait(timeout=5.0)
    pool.close()
    by_val = {str(o): e for o, e in results}
    assert isinstance(by_val["None"], TraceFormatError)
    assert by_val["fine"] is None  # the pool thread survived the failure


def test_a_raising_callback_does_not_kill_the_worker():
    pool = RecordingPool(1).start()
    results, done, on_done = collect_outcomes(1)

    def explode(outcome, error):
        raise RuntimeError("owner bug")

    pool.submit(ShardTask(spec="first", on_done=explode))
    pool.submit(ShardTask(spec="second", on_done=on_done))
    assert done.wait(timeout=5.0)  # the lone worker thread survived
    pool.close()
    assert results == [("second", None)]


def test_nonretryable_error_propagates_to_callback_immediately():
    calls = []

    def behavior(spec):
        calls.append(spec)
        raise ValueError("logic bug")

    pool = RecordingPool(
        1, behavior=behavior, retry=RetryPolicy(retries=5, backoff_seconds=0.0)
    ).start()
    results, done, on_done = collect_outcomes(1)
    pool.submit(ShardTask(spec="s", on_done=on_done))
    assert done.wait(timeout=5.0)
    pool.close()
    assert isinstance(results[0][1], ValueError)
    assert len(calls) == 1  # no retries for non-transient errors


def test_retry_policy_backoff_sequence():
    sleeps = []
    fails = [0]

    def fn():
        fails[0] += 1
        if fails[0] <= 3:
            raise OSError("x")
        return "done"

    policy = RetryPolicy(retries=3, backoff_seconds=0.01, sleep=sleeps.append)
    assert policy.run(fn) == "done"
    assert sleeps == [0.01, 0.02, 0.04]  # doubling backoff


def test_retry_policy_fallback():
    policy = RetryPolicy(retries=1, backoff_seconds=0.0)

    def always_fails():
        raise OSError("x")

    assert policy.run(always_fails, fallback=None) is None
    with pytest.raises(OSError):
        policy.run(always_fails)


def test_close_without_wait_cancels_queued_tasks():
    # One blocker holds the single worker; everything behind it must be
    # failed with PoolClosedError instead of stranding its job forever.
    gate = threading.Event()
    started = threading.Event()

    def behavior(spec):
        if spec == "blocker":
            started.set()
            gate.wait(timeout=10.0)
        return spec

    pool = RecordingPool(1, behavior=behavior).start()
    results, done, on_done = collect_outcomes(4)
    pool.submit(ShardTask(spec="blocker", on_done=on_done))
    for i in range(3):
        pool.submit(ShardTask(spec=i, on_done=on_done))
    # Let the worker pick the blocker up before we pull the plug.
    assert started.wait(timeout=5.0)
    pool.close(wait=False)
    gate.set()
    assert done.wait(timeout=5.0)
    errors = [e for _, e in results if e is not None]
    assert len(errors) >= 3
    assert all(isinstance(e, PoolClosedError) for e in errors)


def test_retry_backoff_jitter_is_seeded_and_bounded():
    base = RetryPolicy(retries=4, backoff_seconds=0.01)
    a = RetryPolicy(retries=4, backoff_seconds=0.01, jitter_seed=7)
    b = RetryPolicy(retries=4, backoff_seconds=0.01, jitter_seed=7)
    seq_a = [a.backoff(k) for k in range(1, 5)]
    seq_b = [b.backoff(k) for k in range(1, 5)]
    assert seq_a == seq_b  # same seed -> identical schedule
    for attempt, value in enumerate(seq_a, start=1):
        # Full jitter: uniform over [0, deterministic doubling value].
        assert 0.0 <= value <= base.backoff(attempt)
    # Unseeded policies keep the exact doubling the tests above pin.
    assert [base.backoff(k) for k in range(1, 4)] == [0.01, 0.02, 0.04]


def test_retry_run_reports_backoff_to_hook():
    observed = []
    fails = [0]

    def fn():
        fails[0] += 1
        if fails[0] <= 2:
            raise OSError("x")
        return "done"

    policy = RetryPolicy(
        retries=3, backoff_seconds=0.01, jitter_seed=3, sleep=lambda s: None
    )
    assert policy.run(fn, on_backoff=observed.append) == "done"
    assert len(observed) == 2
    assert all(0.0 <= s <= 0.01 * (1 << k) for k, s in enumerate(observed))


def test_close_does_not_wait_out_a_liveness_tick(monkeypatch):
    monkeypatch.setattr(pool_module, "_LIVENESS_TICK", 5.0)
    pool = RecordingPool(1).start()
    time.sleep(0.05)  # the supervisor is inside its tick now
    t0 = time.perf_counter()
    pool.close()
    assert time.perf_counter() - t0 < 1.0
