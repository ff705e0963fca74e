"""Ranking wired through the optimizer, the flow, and serve job options.

The contract under test is DESIGN 3.23: ``rank='off'`` is the unranked
flow bit-for-bit, ``rank='log'`` observes without perturbing and logs a
byte-deterministic dataset, and ``rank='prune'`` with a recall-1.0 model
fitted on the circuit's own log reproduces the unranked result exactly
while skipping doomed candidates before any SPCF work.
"""

from __future__ import annotations

import io

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import write_aag
from repro.core import (
    LookaheadOptimizer,
    lookahead_flow,
    normalize_job_config,
)
from repro.rank import (
    FEATURE_NAMES,
    RankLogger,
    encode_row,
    fit_model,
    passthrough_model,
)


def _dump(aig):
    buf = io.StringIO()
    write_aag(aig, buf)
    return buf.getvalue()


def _run(aig, **kwargs):
    """One bounded sim-mode optimize (the windowed cone path)."""
    opts = dict(
        seed=1, max_rounds=2, mode="sim", sim_width=256,
        walk_modes=("target", "full"), workers=1,
    )
    opts.update(kwargs)
    with LookaheadOptimizer(**opts) as opt:
        return opt.optimize(aig)


@pytest.fixture(scope="module")
def rca8():
    return ripple_carry_adder(8)


@pytest.fixture(scope="module")
def off_result(rca8):
    return _dump(_run(rca8))


class TestOffIdentity:
    def test_rank_off_bit_identical_to_default(self, rca8, off_result):
        assert _dump(_run(rca8, rank="off")) == off_result

    def test_log_bit_identical_to_off(self, rca8, off_result):
        logger = RankLogger()
        out = _run(rca8, rank="log", rank_data=logger)
        assert _dump(out) == off_result
        assert len(logger.rows) > 0


class TestLogDeterminism:
    def test_same_seed_same_rows_bytewise(self, rca8):
        l1, l2 = RankLogger(), RankLogger()
        _run(rca8, rank="log", rank_data=l1)
        _run(rca8, rank="log", rank_data=l2)
        assert [encode_row(r) for r in l1.rows] \
            == [encode_row(r) for r in l2.rows]

    def test_serial_equals_parallel_rows(self, rca8):
        serial, parallel = RankLogger(), RankLogger()
        _run(rca8, rank="log", rank_data=serial, workers=1)
        _run(rca8, rank="log", rank_data=parallel, workers=2)
        assert [encode_row(r) for r in serial.rows] \
            == [encode_row(r) for r in parallel.rows]

    def test_row_shape(self, rca8):
        logger = RankLogger()
        _run(rca8, rank="log", rank_data=logger)
        for row in logger.rows:
            assert len(row["features"]) == len(FEATURE_NAMES)
            assert row["accept"] in (0, 1)
            assert row["walk"] in ("target", "full")
            assert len(row["fp"]) == 16 and len(row["circuit"]) == 16


class TestPrune:
    def test_fitted_recall_one_prune_bit_identical(self, rca8, off_result):
        logger = RankLogger()
        _run(rca8, rank="log", rank_data=logger)
        model = fit_model(logger.rows, target_recall=1.0)
        perf.reset()
        out = _run(rca8, rank="prune", rank_model=model)
        assert _dump(out) == off_result
        assert perf.counter("rank.scored") > 0

    def test_all_prune_model_degenerates_to_no_work(self, rca8):
        # Wholly pruned windows are trusted (no fallback re-run), so a
        # model that prunes everything must hand back the untouched
        # input — and never silently re-spend the work it skipped.
        harsh = passthrough_model()
        harsh.threshold = 2.0  # above any probability: prunes everything
        perf.reset()
        out = _run(rca8, rank="prune", rank_model=harsh)
        assert _dump(out) == _dump(rca8.extract())
        assert perf.counter("rank.pruned") > 0
        assert perf.counter("rank.fallback.windows") == 0
        assert perf.counter("replacements.accepted") == 0

    def test_partially_pruned_window_falls_back(self, rca8, off_result,
                                                monkeypatch):
        # When the gate lets some candidates through and they all lose,
        # its negative predictions are suspect: the pruned remainder is
        # re-run ungated and rescued accepts are counted as detected
        # false prunes.
        harsh = passthrough_model()
        harsh.threshold = 2.0
        opts = dict(
            seed=1, max_rounds=2, mode="sim", sim_width=256,
            walk_modes=("target", "full"), workers=1,
            rank="prune", rank_model=harsh,
        )
        with LookaheadOptimizer(**opts) as opt:
            real = opt._cone_round

            def partial(aig, net_thunk, window, aig_levels, mode,
                        walk_mode, extractor=None, gate=True):
                if not gate or len(window) < 2:
                    return real(aig, net_thunk, window, aig_levels, mode,
                                walk_mode, extractor, gate=gate)
                # Pretend the gate evaluated the first candidate (which
                # then failed) and pruned the rest of the window.
                pruned = list(window[1:])
                for _po, fp, _spcf_key, cfg_key in pruned:
                    perf.incr("rank.pruned")
                    opt._call_rejected.add(cfg_key)
                    opt._note_reject(fp)
                return [], {}, pruned, {}, 1

            monkeypatch.setattr(opt, "_cone_round", partial)
            perf.reset()
            out = opt.optimize(rca8)
        from repro.cec import check_equivalence

        assert check_equivalence(rca8, out)
        assert perf.counter("rank.fallback.windows") > 0
        assert perf.counter("rank.false_prune_detected") > 0

    def test_prune_counters_and_histogram(self, rca8):
        logger = RankLogger()
        _run(rca8, rank="log", rank_data=logger)
        model = fit_model(logger.rows, target_recall=1.0)
        perf.reset()
        _run(rca8, rank="prune", rank_model=model)
        assert perf.counter("rank.scored") >= perf.counter("rank.pruned")
        hist = perf.histogram("rank.score")
        assert hist is not None and hist["count"] > 0


class TestConstructorValidation:
    def test_unknown_rank_mode(self):
        with pytest.raises(ValueError, match="unknown rank mode"):
            LookaheadOptimizer(rank="bogus")

    def test_prune_requires_model(self):
        with pytest.raises(ValueError, match="requires a rank_model"):
            LookaheadOptimizer(rank="prune")

    def test_rank_data_needs_log(self):
        with pytest.raises(ValueError, match="only meaningful"):
            LookaheadOptimizer(rank="off", rank_data="data.jsonl")


class TestFlowWiring:
    def test_flow_accepts_rank_log(self, tmp_path):
        from repro.cec import check_equivalence

        aig = ripple_carry_adder(4)
        data = tmp_path / "flow.jsonl"
        out = lookahead_flow(
            aig, max_iterations=1, rank="log", rank_data=str(data)
        )
        assert check_equivalence(aig, out)
        assert data.exists() and data.read_text().strip()


class TestJobOptions:
    def test_log_not_servable(self):
        with pytest.raises(ValueError, match="unservable rank mode"):
            normalize_job_config({"rank": "log"})

    def test_prune_requires_embedded_payload(self, tmp_path):
        with pytest.raises(ValueError, match="embed the model payload"):
            normalize_job_config({"rank": "prune"})
        with pytest.raises(ValueError, match="embed the model payload"):
            normalize_job_config(
                {"rank": "prune", "rank_model": str(tmp_path / "m.json")}
            )

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            normalize_job_config(
                {"rank": "prune", "rank_model": {"format": "bogus"}}
            )

    def test_model_without_prune_rejected(self):
        payload = passthrough_model().payload()
        with pytest.raises(ValueError, match="only meaningful"):
            normalize_job_config({"rank": "off", "rank_model": payload})

    def test_job_key_tracks_model_fingerprint(self):
        m1 = passthrough_model()
        m2 = passthrough_model(meta={"variant": 2})
        base = normalize_job_config(None).key()
        k1 = normalize_job_config(
            {"rank": "prune", "rank_model": m1.payload()}
        ).key()
        k2 = normalize_job_config(
            {"rank": "prune", "rank_model": m2.payload()}
        ).key()
        assert base != k1 and k1 != k2
        again = normalize_job_config(
            {"rank": "prune", "rank_model": m1.payload()}
        ).key()
        assert k1 == again


class TestCliWiring:
    def test_optimize_log_then_fit_then_prune(self, tmp_path):
        from repro.aig import read_aag
        from repro.cli import main

        aig = ripple_carry_adder(6)
        circuit = tmp_path / "rca6.aag"
        with open(circuit, "w") as fh:
            write_aag(aig, fh)
        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        off_out = tmp_path / "off.aag"
        prune_out = tmp_path / "prune.aag"
        base = [
            "optimize", str(circuit), "--flow", "lookahead-only",
            "--workers", "1", "--spcf-tier", "signature",
        ]
        assert main(base + ["-o", str(off_out)]) == 0
        assert main(base + [
            "--rank", "log", "--rank-data", str(data),
        ]) == 0
        assert main([
            "rank", "fit", "--data", str(data), "-o", str(model),
        ]) == 0
        assert main(base + [
            "--rank", "prune", "--rank-model", str(model),
            "-o", str(prune_out),
        ]) == 0
        with open(off_out) as fh:
            off_aig = read_aag(fh)
        with open(prune_out) as fh:
            prune_aig = read_aag(fh)
        assert _dump(off_aig) == _dump(prune_aig)

    def test_prune_without_model_errors(self, tmp_path, capsys):
        from repro.cli import main

        circuit = tmp_path / "rca4.aag"
        with open(circuit, "w") as fh:
            write_aag(ripple_carry_adder(4), fh)
        assert main([
            "optimize", str(circuit), "--rank", "prune",
        ]) == 2
        assert "--rank-model" in capsys.readouterr().err
