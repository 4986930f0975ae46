"""Configuration validation and paper constants."""

from dataclasses import fields

import pytest

from repro.common.config import (
    MiB,
    ArcherConfig,
    NodeConfig,
    RunConfig,
    SchedulerConfig,
    SWORD_AUX_BYTES,
    SWORD_BUFFER_BYTES,
    SWORD_BUFFER_EVENTS,
    SwordConfig,
)
from repro.common.errors import ConfigError
from repro.offline.options import AnalysisOptions


def test_paper_constants():
    assert SWORD_BUFFER_EVENTS == 25_000
    assert SWORD_BUFFER_BYTES == 2 * MiB
    # "around 1.3 MB" of auxiliary TLS.
    assert abs(SWORD_AUX_BYTES - 1.3 * MiB) < 0.01 * MiB


def test_sword_per_thread_is_about_3_3_mb():
    cfg = SwordConfig(log_dir="/tmp/x")
    assert abs(cfg.per_thread_bytes - 3.3 * MiB) < 0.05 * MiB


def test_sword_requires_log_dir():
    with pytest.raises(ConfigError):
        SwordConfig().validate()


def test_sword_trace_encoding_is_not_a_knob():
    """One frame encoding: the codec name is a read-only constant."""
    assert SwordConfig().codec == SwordConfig.codec == "zlib"
    with pytest.raises(TypeError):
        SwordConfig(**{"codec": "lzrle"})
    with pytest.raises(AttributeError):
        SwordConfig().codec = "lzrle"
    assert {f.name for f in fields(SwordConfig)} == {
        "buffer_events", "buffer_bytes", "aux_bytes", "log_dir", "durable",
        "fsync_on_flush", "flush_retries", "flush_backoff_seconds",
        "flush_degraded", "static_prescreen",
    }


def test_scheduler_policy_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(policy="fifo").validate()
    SchedulerConfig(policy="round-robin").validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(yield_every=-1).validate()


def test_archer_shadow_validation():
    with pytest.raises(ConfigError):
        ArcherConfig(shadow_cells=0).validate()
    with pytest.raises(ConfigError):
        ArcherConfig(shadow_word_bytes=3).validate()
    ArcherConfig().validate()


def test_node_and_offline_validation():
    with pytest.raises(ConfigError):
        NodeConfig(memory_limit=0).validate()
    with pytest.raises(ConfigError):
        AnalysisOptions(workers=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(nthreads=0).validate()
    RunConfig().validate()
