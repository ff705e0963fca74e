"""Serve-side orchestrator behavior: effort-knob configs, pool_limit LRU
eviction, and concurrent mixed-config clients answering bit-identically
to local runs.

The bench orchestrator ships Table 2's size-scaled effort tiers to the
daemon as explicit job options; these tests pin the daemon-side half of
that contract.
"""

from __future__ import annotations

import io
import threading

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import write_aag
from repro.core.flow import (
    execute_optimize_job,
    normalize_job_config,
)
from repro.serve import ReproDaemon, ServeClient
from repro.store import runtime as store_runtime


@pytest.fixture(autouse=True)
def _isolated_runtime():
    store_runtime.reset()
    perf.reset()
    yield
    store_runtime.reset()


def _rca_text(width: int = 2) -> str:
    buf = io.StringIO()
    write_aag(ripple_carry_adder(width), buf)
    return buf.getvalue()


def _local_answer(width: int, options: dict) -> str:
    config = normalize_job_config(options)
    out = execute_optimize_job(
        ripple_carry_adder(width), config, workers=1
    )
    buf = io.StringIO()
    write_aag(out, buf)
    return buf.getvalue()


class TestPoolLimitEviction:
    def test_many_distinct_configs_keep_pool_bounded(self, tmp_path):
        """Each distinct effort config warms its own pooled optimizer;
        pool_limit LRU-evicts idle ones instead of growing forever."""
        daemon = ReproDaemon(
            store=None,
            workers=1,
            pool_limit=2,
            job_timeout=120.0,
            endpoint_file=str(tmp_path / "d.serve.json"),
        )
        daemon.start()
        try:
            client = ServeClient(daemon.host, daemon.port)
            text = _rca_text()
            keys = set()
            for sim_width in (64, 128, 256, 512, 1024):
                options = {
                    "flow": "lookahead-only",
                    "max_rounds": 1,
                    "sim_width": sim_width,
                }
                result = client.submit(text, options=options, timeout=120)
                assert result["depth"] >= 1
                keys.add(normalize_job_config(options).key())
            assert len(keys) == 5  # genuinely distinct configs
            with daemon._pool_lock:
                assert 0 < len(daemon._pool) <= 2
        finally:
            daemon.stop()

    def test_busy_entries_survive_eviction_pressure(self, tmp_path):
        """_evict_one skips checked-out optimizers: over-budget beats
        closing an optimizer mid-job (covered via direct checkout)."""
        daemon = ReproDaemon(
            store=None,
            workers=1,
            pool_limit=1,
            endpoint_file=str(tmp_path / "d.serve.json"),
        )
        daemon.start()
        try:
            from repro.serve.daemon import Job

            job_a = Job(1, normalize_job_config(
                {"flow": "lookahead-only", "max_rounds": 1}
            ), ripple_carry_adder(2), 60.0, False)
            job_b = Job(2, normalize_job_config(
                {"flow": "lookahead-only", "max_rounds": 2}
            ), ripple_carry_adder(2), 60.0, False)
            entry_a = daemon._checkout(job_a)  # busy (lock held)
            entry_b = daemon._checkout(job_b)  # over budget, still granted
            with daemon._pool_lock:
                assert len(daemon._pool) >= 1
            daemon._checkin(entry_b)
            daemon._checkin(entry_a)
        finally:
            daemon.stop()


class TestConcurrentMixedConfigs:
    def test_two_clients_mixed_configs_bit_identical_to_local(
        self, tmp_path
    ):
        """Concurrent submits with different effort configs each answer
        exactly what a local run of that config produces."""
        options_a = {"flow": "lookahead-only", "max_rounds": 1,
                     "sim_width": 256}
        options_b = {"flow": "lookahead-only", "max_rounds": 2,
                     "walk_modes": ["target"]}
        key_a = normalize_job_config(options_a).key()
        key_b = normalize_job_config(options_b).key()
        assert key_a != key_b
        local = {
            "a": _local_answer(2, options_a),
            "b": _local_answer(2, options_b),
        }
        daemon = ReproDaemon(
            store=str(tmp_path / "store.db"),
            workers=1,
            runners=2,
            job_timeout=120.0,
            endpoint_file=str(tmp_path / "d.serve.json"),
        )
        daemon.start()
        try:
            text = _rca_text()
            results = {}
            errors = []

            def submit(tag, options):
                try:
                    client = ServeClient(daemon.host, daemon.port)
                    results[tag] = [
                        client.submit(text, options=options, timeout=120)
                        for _ in range(2)
                    ]
                except Exception as exc:  # surfaced after join
                    errors.append((tag, exc))

            threads = [
                threading.Thread(target=submit, args=("a", options_a)),
                threading.Thread(target=submit, args=("b", options_b)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors, errors
            for tag in ("a", "b"):
                for result in results[tag]:
                    assert result["circuit"] == local[tag], (
                        f"served config {tag} diverged from local run"
                    )
        finally:
            daemon.stop()
