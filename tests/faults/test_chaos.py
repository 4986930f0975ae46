"""Service-tier chaos: the resume sweep and poison degradation.

``plusplus-orig-yes`` at 4 threads plans 12 concurrent pairs, 6 of which
survive the plan-time digest prune: two 3-pair shards, so shard 1 exists
(at 2 threads one pair survives and there is nothing to poison).
"""

from repro.faults import poison_degradation, resume_sweep


def test_resume_sweep_small_fixed_seed():
    # A handful of evenly-sampled restart points keeps this in test
    # budget; CI's chaos-smoke job runs the wider sweep.
    result = resume_sweep(
        "plusplus-orig-yes",
        jobs=2,
        nthreads=4,
        seed=0,
        shard_pairs=8,
        max_points=4,
    )
    assert result.ok, [p.to_json() for p in result.failures]
    assert result.wal_records > 0
    assert result.clean_races > 0
    # The sweep actually exercised resume, not just empty restarts.
    assert any(p.jobs_resumed > 0 for p in result.points)


def test_poison_degradation_fixed_seed():
    result = poison_degradation(
        "plusplus-orig-yes",
        nthreads=4,
        seed=0,
        shard_pairs=4,
        poison=(1,),
    )
    assert result.ok, result.to_json()
    assert result.state == "degraded"
    assert result.report["pair_coverage"] < 1.0
    assert result.report["shards_quarantined"] == [1]


def test_stalled_shard_times_out_and_quarantines():
    # A shard sleeping past the liveness timeout on every attempt burns
    # its crash budget and lands in quarantine like any other poison.
    result = poison_degradation(
        "plusplus-orig-yes",
        nthreads=4,
        seed=0,
        shard_pairs=4,
        poison=(),
        stall=(1,),
        shard_timeout_s=0.2,
    )
    assert result.ok, result.to_json()
    assert result.stalled_shards == [1]
    causes = result.report["quarantined"][0]["causes"]
    assert any("ShardTimeoutError" in c for c in causes), causes


def test_poisoning_a_vanished_shard_fails_loudly():
    # 2 threads: one surviving pair, one shard.  The scenario must not
    # report a clean pass over a job nothing was done to.
    result = poison_degradation(
        "plusplus-orig-yes", nthreads=2, seed=0, shard_pairs=4, poison=(1,)
    )
    assert not result.ok
    assert result.state == "failed"
    assert "chaos: no shard [1]" in result.error
