"""Tests for the query-engine regression gate and the timing history.

``benchmarks/`` is not a package; the module under test is loaded straight
from its file path, exactly as CI invokes it.
"""

import importlib.util
import json
import pathlib

import pytest

_MODULE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _report(batch_speedup=8.0):
    return {
        "benchmark": "query_engine",
        "results": [
            {
                "n_support": 2000,
                "seed_seconds": 2.5,
                "evaluate_batch_seconds": 0.3,
                "speedup_evaluate_vs_seed": 4.0,
                "speedup_batch_vs_seed": batch_speedup,
            }
        ],
        # History collects ``*_seconds`` and ``speedup_*`` fields of the
        # named sections whatever report carries them.
        "migration": {
            "migrate_seconds": 0.17,
            "speedup_migrate_vs_restore": 1.5,
        },
        "stacked": {
            "pergroup_seconds": 0.40,
            "stacked_seconds": 0.30,
            "speedup_stacked_vs_pergroup": 1.33,
        },
    }


class TestQueryEngineGate:
    def test_healthy_run_passes(self):
        assert check_regression.compare(_report(), _report(), factor=2.0) == []

    def test_batch_regression_fails(self):
        failures = check_regression.compare(
            _report(batch_speedup=8.0), _report(batch_speedup=3.0), factor=2.0
        )
        assert any("speedup_batch_vs_seed" in f for f in failures)

    def test_baseline_with_removed_sections_tolerated(self):
        """Older baselines still carry the removed ``parallel`` and ``reuse``
        sections: nothing gates them, and nothing crashes on them."""
        baseline = _report()
        baseline["parallel"] = {"serial_seconds": 0.3, "parallel_seconds": 0.3}
        baseline["reuse"] = {
            "reuse_fresh_seconds": 7.0,
            "reuse_cached_seconds": 3.5,
            "speedup_reuse_vs_fresh": 2.0,
        }
        assert check_regression.compare(baseline, _report(), factor=2.0) == []


class TestHistory:
    def test_entry_collects_seconds_and_ratios(self):
        entry = check_regression.history_entry(_report(), commit="abc123")
        assert entry["commit"] == "abc123"
        assert entry["machine"]["python"]
        assert entry["absolute_seconds"]["n2000.seed_seconds"] == 2.5
        assert entry["absolute_seconds"]["migration.migrate_seconds"] == 0.17
        assert entry["ratios"]["n2000.speedup_batch_vs_seed"] == 8.0
        assert entry["ratios"]["migration.speedup_migrate_vs_restore"] == 1.5

    def test_append_creates_and_extends_jsonl(self, tmp_path):
        history = tmp_path / "BENCH_history.jsonl"
        check_regression.append_history(history, _report(), commit="one")
        check_regression.append_history(history, _report(), commit="two")
        lines = [json.loads(line) for line in history.read_text().splitlines()]
        assert [line["commit"] for line in lines] == ["one", "two"]
        assert all(line["benchmark"] == "query_engine" for line in lines)

    def test_cli_appends_history(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        history = tmp_path / "history.jsonl"
        baseline.write_text(json.dumps(_report()))
        current.write_text(json.dumps(_report()))
        code = check_regression.main(
            [
                str(baseline),
                str(current),
                "--history",
                str(history),
                "--commit",
                "deadbeef",
            ]
        )
        assert code == 0
        assert "history: appended" in capsys.readouterr().out
        (line,) = history.read_text().splitlines()
        assert json.loads(line)["commit"] == "deadbeef"

    def test_committed_history_is_valid_jsonl(self):
        committed = _MODULE_PATH.parent.parent / "BENCH_history.jsonl"
        lines = committed.read_text().splitlines()
        assert lines, "seed history line missing"
        for line in lines:
            entry = json.loads(line)
            # Both benchmark kinds append to the one history file.
            assert entry["benchmark"] in check_regression.KNOWN_BENCHMARKS
            assert entry["absolute_seconds"]


class TestGateStillRejectsMalformed:
    def test_malformed_current(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_report()))
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        assert check_regression.main([str(baseline), str(broken)]) == 2

    def test_factor_must_exceed_one(self, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(_report()))
        with pytest.raises(SystemExit):
            check_regression.main([str(baseline), str(baseline), "--factor", "0.5"])


def _service_report(speedup=1.6, bitwise=True):
    return {
        "benchmark": "service",
        "scenarios": {
            "sequential": {
                "n_queries": 1280,
                "seconds": 1.6,
                "qps": 800.0,
                "latency_ms": {"p50": 1.2, "p90": 1.5, "p99": 2.4, "max": 9.0},
            },
            "concurrent_batched": {
                "n_queries": 1280,
                "seconds": 1.0,
                "qps": 800.0 * speedup,
                "latency_ms": {"p50": 6.0, "p90": 8.0, "p99": 11.0, "max": 20.0},
            },
        },
        "snapshot": {"roundtrip_bitwise": bitwise, "cache_size": 1500},
        "speedup_batched_vs_sequential": speedup,
        "speedup_batched_vs_unbatched": 1.4,
    }


class TestServiceGate:
    def test_healthy_service_run_passes(self):
        report = _service_report()
        assert check_regression.compare(report, report, factor=2.0) == []

    def test_service_regression_fails(self):
        failures = check_regression.compare(
            _service_report(speedup=1.6), _service_report(speedup=0.5), factor=2.0
        )
        assert any("speedup_batched_vs_sequential" in f for f in failures)

    def test_unbatched_ratio_not_gated(self):
        current = _service_report()
        current["speedup_batched_vs_unbatched"] = 0.1  # recorded, not gated
        assert check_regression.compare(_service_report(), current, factor=2.0) == []

    def test_broken_snapshot_roundtrip_fails(self):
        failures = check_regression.compare(
            _service_report(), _service_report(bitwise=False), factor=2.0
        )
        assert any("roundtrip_bitwise" in f for f in failures)

    def test_mismatched_kinds_rejected_by_cli(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(_service_report()))
        current.write_text(json.dumps(_report()))
        assert check_regression.main([str(baseline), str(current)]) == 2

    def test_unknown_benchmark_kind_rejected(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"benchmark": "mystery"}))
        assert check_regression.main([str(baseline), str(baseline)]) == 2

    def test_service_cli_gate_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_service_report()))
        assert check_regression.main([str(baseline), str(baseline)]) == 0
        assert "smoke OK" in capsys.readouterr().out


class TestServiceHistory:
    def test_entry_collects_scenarios_and_ratios(self):
        entry = check_regression.history_entry(_service_report(), commit="svc1")
        absolute = entry["absolute_seconds"]
        assert absolute["scenarios.sequential.seconds"] == 1.6
        assert absolute["scenarios.sequential.qps"] == 800.0
        assert absolute["scenarios.concurrent_batched.latency_ms.p99"] == 11.0
        assert entry["ratios"]["speedup_batched_vs_sequential"] == 1.6
        assert entry["ratios"]["speedup_batched_vs_unbatched"] == 1.4
        assert entry["benchmark"] == "service"

    def test_committed_service_baseline_is_gateable(self):
        committed = _MODULE_PATH.parent.parent / "BENCH_service.json"
        report = json.loads(committed.read_text())
        assert report["benchmark"] == "service"
        assert check_regression.compare(report, report, factor=2.0) == []
        assert report["acceptance"]["passed"] is True
        assert (
            report["acceptance"]["speedup_batched_vs_sequential"]
            >= report["acceptance"]["threshold"]
        )
        entry = check_regression.history_entry(report)
        assert entry["absolute_seconds"] and entry["ratios"]


class TestServiceGateStrictness:
    def test_current_dropping_gated_ratio_fails(self):
        current = _service_report()
        del current["speedup_batched_vs_sequential"]
        failures = check_regression.compare(_service_report(), current, factor=2.0)
        assert any("missing from the current report" in f for f in failures)

    def test_current_dropping_snapshot_section_fails(self):
        current = _service_report()
        del current["snapshot"]
        failures = check_regression.compare(_service_report(), current, factor=2.0)
        assert any("snapshot: section missing" in f for f in failures)

    def test_older_baseline_without_fields_tolerated(self):
        baseline = {"benchmark": "service", "scenarios": {}}
        assert check_regression.compare(baseline, _service_report(), factor=2.0) == []
