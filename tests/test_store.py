"""Tests for repro.store: index consistency, queries, tables, bench, gc.

The load-bearing invariants (DESIGN.md section 16):

* query rows are bit-consistent with ``CostReport.to_dict()`` — the store
  serves the cached payload verbatim, never a re-derivation;
* a full ``reindex`` of a warm cache reproduces the incrementally built
  index exactly (canonical-dump equality);
* ``bench check`` exits non-zero exactly when a gated metric regresses
  beyond its tolerance against the recorded baseline;
* every output format is byte-deterministic for a given cache.
"""

import json
import warnings

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import SweepSpec
from repro.eval.cli import main as cli_main
from repro.eval.runner import ReportCache, job_key
from repro.sim.config import SimConfig
from repro.store import (
    Query,
    ResultStore,
    StoreError,
    attach_indexer,
    query_from_mapping,
)
from repro.store.bench import check_against_baseline, flatten, ingest_file
from repro.store.gc import gc_cache
from repro.store.query import render_rows
from repro.store.tables import build_table, render_tables, table_spec

SIM = SimConfig.scaled(16)


def _sweep_spec(kernel="spmv", schemes=("taco_csr", "smash_hw"), keys=("M2", "M8"), dim=48):
    return SweepSpec.product(kernels=kernel, schemes=schemes, matrices=keys, dim=dim)


def _run_sweep(cache_dir, **kwargs):
    """Run the canonical small sweep into ``cache_dir``; returns its result."""
    runtime = RuntimeConfig(processes=1, cache_dir=cache_dir)
    with Session(sim=SIM, runtime=runtime) as session:
        return session.sweep(_sweep_spec(**kwargs))


@pytest.fixture()
def warm_store(tmp_path):
    """A cache dir holding the canonical sweep, plus its (warm) store."""
    result = _run_sweep(tmp_path)
    return ResultStore(tmp_path), result


class TestIngestAndReindex:
    def test_session_sweep_keeps_index_warm(self, warm_store):
        store, result = warm_store
        assert store.exists()
        assert store.report_count() == len(result.reports)

    def test_query_rows_bit_consistent_with_cost_report(self, warm_store):
        store, result = warm_store
        by_report = {
            json.dumps(report.to_dict(), sort_keys=True) for report in result.reports
        }
        rows = store.query(Query(kernel="spmv"))
        assert len(rows) == len(result.reports)
        for row in rows:
            payload = json.loads(row["report"])
            assert json.dumps(payload, sort_keys=True) in by_report

    def test_reindex_reproduces_incremental_index_exactly(self, warm_store):
        store, _ = warm_store
        incremental = store.canonical_dump()
        stats = store.reindex()
        assert stats.indexed == store.report_count()
        assert store.canonical_dump() == incremental

    def test_reindex_skips_foreign_schema_and_malformed_documents(self, tmp_path):
        _run_sweep(tmp_path)
        cache = ReportCache(tmp_path)
        foreign = dict(json.loads(cache.path_for(next(cache.iter_entries())[0]).read_text()))
        foreign["schema"] = 999
        (tmp_path / "ff").mkdir(exist_ok=True)
        (tmp_path / "ff" / ("f" * 64 + ".json")).write_text(json.dumps(foreign))
        (tmp_path / "ee").mkdir(exist_ok=True)
        (tmp_path / "ee" / ("e" * 64 + ".json")).write_text("not json{")
        store = ResultStore(tmp_path)
        stats = store.reindex()
        assert stats.indexed == 4
        assert stats.skipped_foreign == 1
        assert stats.skipped_malformed == 1
        assert store.report_count() == 4

    def test_incremental_ingest_of_foreign_document_is_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.ingest("ab" * 32, {"schema": 999}) is False
        assert store.ingest("cd" * 32, "not a document") is False

    def test_index_file_is_invisible_to_the_cache_tree(self, warm_store):
        store, result = warm_store
        cache = ReportCache(store.root)
        assert store.path.exists()
        keys = [key for key, _ in cache.iter_entries()]
        assert len(keys) == len(result.reports)
        assert all(len(key) == 64 for key in keys)

    def test_store_ingest_knob_disables_the_hook(self, tmp_path):
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path, store_ingest=False)
        with Session(sim=SIM, runtime=runtime) as session:
            session.sweep(_sweep_spec())
        assert not ResultStore(tmp_path).exists()

    def test_broken_indexer_degrades_without_failing_the_sweep(self, tmp_path):
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        with Session(sim=SIM, runtime=runtime) as session:
            # Point the already-attached indexer at an impossible location
            # (a directory cannot be opened as a sqlite database): ingest
            # errors must warn once and disable, never fail a sweep.
            indexer = session.cache.indexer
            indexer.store.path = tmp_path / "not-a-database"
            indexer.store.path.mkdir()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = session.sweep(_sweep_spec())
            assert len(result.reports) == 4
            assert any("ingest disabled" in str(w.message) for w in caught)
            assert indexer._failed is True

    def test_runtime_env_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SMASH_REPRO_STORE", "off")
        assert RuntimeConfig.from_env().store_ingest is False
        monkeypatch.setenv("SMASH_REPRO_STORE", "1")
        assert RuntimeConfig.from_env().store_ingest is True
        monkeypatch.delenv("SMASH_REPRO_STORE")
        monkeypatch.setenv("SMASH_REPRO_STORE_INDEX", str(tmp_path / "alt.sqlite"))
        assert RuntimeConfig.from_env().store_index == str(tmp_path / "alt.sqlite")

    def test_store_index_knob_relocates_the_index(self, tmp_path):
        index_path = tmp_path / "elsewhere" / "idx.sqlite"
        runtime = RuntimeConfig(
            processes=1, cache_dir=tmp_path / "cache", store_index=index_path
        )
        with Session(sim=SIM, runtime=runtime) as session:
            session.sweep(_sweep_spec())
        assert index_path.exists()
        store = ResultStore(tmp_path / "cache", index_path)
        assert store.report_count() == 4


class TestQueries:
    def test_filters(self, warm_store):
        store, _ = warm_store
        assert len(store.query(Query(scheme="smash_hw"))) == 2
        assert len(store.query(Query(matrix="M2"))) == 2
        assert len(store.query(Query(matrix="M2", scheme="taco_csr"))) == 1
        assert store.query(Query(kernel="spmm")) == []
        assert store.query(Query(dim=96)) == []

    def test_keys_filter_matches_job_keys(self, warm_store):
        store, _ = warm_store
        spec = _sweep_spec()
        keys = tuple(job_key(s.to_job(sim=SIM)) for s in spec.specs)
        assert len(store.query(Query(keys=keys))) == len(spec.specs)
        assert store.query(Query(keys=())) == []

    def test_sort_and_limit(self, warm_store):
        store, _ = warm_store
        rows = store.query(Query(sort="cycles", descending=True, limit=2))
        assert len(rows) == 2
        cycles = [row["cycles"] for row in rows]
        assert cycles == sorted(cycles, reverse=True)

    def test_mean_aggregation_is_exact(self, warm_store):
        store, _ = warm_store
        rows = store.query(Query(mean_by="scheme"))
        plain = store.query(Query())
        for entry in rows:
            members = [r for r in plain if r["scheme"] == entry["scheme"]]
            assert entry["count"] == len(members)
            expected = sum(r["cycles"] for r in members) / len(members)
            assert entry["cycles"] == expected

    def test_invalid_queries_raise_store_error(self, warm_store):
        store, _ = warm_store
        with pytest.raises(StoreError, match="unknown sort column"):
            Query(sort="bogus")
        with pytest.raises(StoreError, match="unknown mean-by column"):
            Query(mean_by="bogus")
        with pytest.raises(StoreError, match="non-negative"):
            Query(limit=-1)
        with pytest.raises(StoreError, match="unknown query parameters"):
            query_from_mapping({"bogus": "1"})
        with pytest.raises(StoreError, match="must be an integer"):
            query_from_mapping({"dim": "abc"})

    def test_render_formats_are_deterministic(self, warm_store):
        store, _ = warm_store
        rows = store.query(Query(kernel="spmv"))
        for fmt in ("table", "csv", "json"):
            assert render_rows(rows, fmt) == render_rows(rows, fmt)
        parsed = json.loads(render_rows(rows, "json"))
        assert parsed[0]["report"] == json.loads(rows[0]["report"])
        with pytest.raises(StoreError, match="unknown format"):
            render_rows(rows, "yaml")


class TestTables:
    def test_speedup_table_matches_reports(self, warm_store):
        store, result = warm_store
        _, columns, rows = build_table(store, "spmv_speedup")
        assert columns == ["workload", "taco_csr", "smash_hw"]
        # suite workload tuples are ("suite", key, dim, seed).
        by = {(s.workload[1], s.scheme): r for s, r in zip(result.specs, result.reports)}
        for row in rows[:-1]:
            workload = row["workload"]
            expected = by[(workload, "taco_csr")].cycles / by[(workload, "smash_hw")].cycles
            assert row["smash_hw"] == format(expected, ".3f")
            assert row["taco_csr"] == "1.000"
        assert rows[-1]["workload"] == "gmean"

    def test_tables_output_is_byte_identical_across_runs(self, warm_store):
        store, _ = warm_store
        first = render_tables(store, ("spmv_speedup", "spmv_dram"), fmt="csv")
        store.reindex()
        second = render_tables(store, ("spmv_speedup", "spmv_dram"), fmt="csv")
        assert first == second

    def test_missing_kernel_and_unknown_table_raise(self, warm_store):
        store, _ = warm_store
        with pytest.raises(StoreError, match="no spmm reports"):
            build_table(store, "spmm_speedup")
        with pytest.raises(StoreError, match="unknown table"):
            build_table(store, "bogus")

    def test_workload_rows_sort_naturally(self, tmp_path):
        _run_sweep(tmp_path, schemes=("taco_csr",), keys=("M10", "M3", "M2"))
        _, _, rows = build_table(ResultStore(tmp_path), "spmv_speedup")
        assert [row["workload"] for row in rows] == ["M2", "M3", "M10", "gmean"]

    def test_spadd_table_is_labelled_by_its_sweep(self):
        description = table_spec("spadd_speedup").description
        assert "spadd sweep" in description and "figure 14" not in description

    def test_missing_baseline_raises(self, tmp_path):
        _run_sweep(tmp_path, schemes=("smash_hw",))
        with pytest.raises(StoreError, match="baseline scheme"):
            build_table(ResultStore(tmp_path), "spmv_speedup")


class TestBenchGate:
    BENCH = {
        "benchmark": "spmv_smoke",
        "total_kernel_seconds": 2.0,
        "schemes": {"taco_csr": {"kernel_seconds": 1.0, "modelled_cycles": 400.0}},
        "notes": "text is ignored",
        "python": "3.12",
    }

    def _bench_file(self, tmp_path, payload, name="BENCH_test.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_flatten_classifies_metrics(self):
        metrics = flatten(self.BENCH)
        assert metrics["total_kernel_seconds"] == (2.0, "seconds")
        assert metrics["schemes.taco_csr.kernel_seconds"] == (1.0, "seconds")
        assert metrics["schemes.taco_csr.modelled_cycles"] == (400.0, "cycles")
        assert "notes" not in metrics and "python" not in metrics

    def test_check_passes_within_tolerance(self, tmp_path):
        store = ResultStore(tmp_path)
        baseline = self._bench_file(tmp_path, self.BENCH)
        run_id = ingest_file(store, baseline, label="base")
        current = dict(self.BENCH, total_kernel_seconds=2.9)  # +45% < +50%
        result = check_against_baseline(
            store, self._bench_file(tmp_path, current, "BENCH_new.json")
        )
        assert result.ok and result.baseline_run == run_id
        assert result.compared == 3

    def test_check_fails_on_seeded_wallclock_regression(self, tmp_path):
        store = ResultStore(tmp_path)
        ingest_file(store, self._bench_file(tmp_path, self.BENCH))
        current = dict(self.BENCH, total_kernel_seconds=3.1)  # +55% > +50%
        result = check_against_baseline(
            store, self._bench_file(tmp_path, current, "BENCH_new.json")
        )
        assert not result.ok
        assert [r.metric for r in result.regressions] == ["total_kernel_seconds"]

    def test_check_fails_on_any_modelled_cycle_growth(self, tmp_path):
        store = ResultStore(tmp_path)
        ingest_file(store, self._bench_file(tmp_path, self.BENCH))
        current = json.loads(json.dumps(self.BENCH))
        current["schemes"]["taco_csr"]["modelled_cycles"] = 400.1
        result = check_against_baseline(
            store, self._bench_file(tmp_path, current, "BENCH_new.json")
        )
        assert [r.metric for r in result.regressions] == ["schemes.taco_csr.modelled_cycles"]

    def test_baseline_selection_and_metric_skew(self, tmp_path):
        store = ResultStore(tmp_path)
        ingest_file(store, self._bench_file(tmp_path, self.BENCH), label="v1")
        newer = dict(self.BENCH, total_kernel_seconds=100.0)
        ingest_file(store, self._bench_file(tmp_path, newer, "BENCH_v2.json"), label="v2")
        current = dict(self.BENCH)
        del current["total_kernel_seconds"]
        current["extra_seconds"] = 1.0
        path = self._bench_file(tmp_path, current, "BENCH_cur.json")
        result = check_against_baseline(store, path, baseline="v1")
        assert result.ok
        assert result.only_in_baseline == ("total_kernel_seconds",)
        assert result.only_in_current == ("extra_seconds",)
        runs = store.bench_runs()
        assert [run["label"] for run in runs] == ["v1", "v2"]
        with pytest.raises(StoreError, match="unknown bench baseline"):
            check_against_baseline(store, path, baseline="nope")
        with pytest.raises(StoreError, match="no BENCH baseline"):
            check_against_baseline(ResultStore(tmp_path / "empty"), path)


class TestGc:
    def test_gc_by_age_prunes_files_and_index_rows(self, tmp_path):
        _run_sweep(tmp_path)
        store = ResultStore(tmp_path)
        assert store.report_count() == 4
        import os

        victims = [path for _, path in ReportCache(tmp_path).iter_entries()][:2]
        for path in victims:
            os.utime(path, (1_000_000, 1_000_000))  # long before any cutoff
        now = 1_000_000 + 10 * 86400
        dry = gc_cache(tmp_path, max_age_days=5, now=now, dry_run=True)
        assert dry.pruned_old == 2 and dry.index_rows_removed == 0
        assert all(path.exists() for path in victims)
        stats = gc_cache(tmp_path, max_age_days=5, now=now)
        assert stats.pruned_old == 2 and stats.kept == 2
        assert stats.index_rows_removed == 2
        assert not any(path.exists() for path in victims)
        assert store.report_count() == 2
        # The pruned index equals a cold rebuild of the pruned tree.
        remaining = store.canonical_dump()
        store.reindex()
        assert store.canonical_dump() == remaining

    def test_gc_orphaned_prunes_foreign_documents(self, tmp_path):
        _run_sweep(tmp_path)
        (tmp_path / "ff").mkdir()
        (tmp_path / "ff" / ("f" * 64 + ".json")).write_text(json.dumps({"schema": 999}))
        stats = gc_cache(tmp_path, orphaned=True)
        assert stats.pruned_foreign == 1 and stats.kept == 4
        assert not (tmp_path / "ff").exists()  # emptied shard removed too

    def test_gc_age_requires_now(self, tmp_path):
        with pytest.raises(ValueError, match="requires an explicit"):
            gc_cache(tmp_path, max_age_days=1)


class TestCacheStats:
    def test_stats_reports_schema_and_count(self, tmp_path):
        cache = ReportCache(tmp_path)
        assert cache.stats() == {"root": str(tmp_path), "schema": 1, "reports": 0}
        _run_sweep(tmp_path)
        assert cache.stats()["reports"] == 4


class TestStoreCli:
    def test_query_json_round_trip(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        code = cli_main(
            ["query", "--cache-dir", str(tmp_path), "--kernel", "spmv", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert {row["scheme"] for row in rows} == {"taco_csr", "smash_hw"}

    def test_query_experiment_filter_matches_quick_run(self, tmp_path, capsys):
        code = cli_main(
            ["run", "figure10", "--quick", "--cache-dir", str(tmp_path), "--json"]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_main(
            [
                "query", "--cache-dir", str(tmp_path),
                "--experiment", "figure10", "--quick", "--format", "json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 12  # 3 quick matrices x 4 MAIN_SCHEMES
        code = cli_main(["query", "--cache-dir", str(tmp_path), "--experiment", "table2"])
        assert code == 2

    def test_tables_cli_byte_identical_across_invocations(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        argv = ["tables", "spmv_speedup", "--cache-dir", str(tmp_path), "--format", "csv"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv + ["--reindex"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bench_check_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "BENCH_base.json"
        base.write_text(json.dumps({"total_kernel_seconds": 1.0}))
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"total_kernel_seconds": 2.0}))
        cache = str(tmp_path / "cache")
        assert cli_main(["bench", "ingest", str(base), "--cache-dir", cache]) == 0
        assert cli_main(["bench", "check", str(base), "--cache-dir", cache]) == 0
        assert cli_main(["bench", "check", str(bad), "--cache-dir", cache]) == 1
        capsys.readouterr()

    def test_bench_check_tolerance_percent_flag(self, tmp_path, capsys):
        """--tolerance is the percent form of the wall-clock gate."""
        base = tmp_path / "BENCH_base.json"
        base.write_text(json.dumps({"total_kernel_seconds": 1.0, "modelled_cycles": 10.0}))
        slow = tmp_path / "BENCH_slow.json"
        slow.write_text(json.dumps({"total_kernel_seconds": 1.9, "modelled_cycles": 10.0}))
        cache = str(tmp_path / "cache")
        assert cli_main(["bench", "ingest", str(base), "--cache-dir", cache]) == 0
        # +90% fails the default +50% gate, passes a widened one.
        check = ["bench", "check", str(slow), "--cache-dir", cache]
        assert cli_main(check) == 1
        assert cli_main(check + ["--tolerance", "100"]) == 0
        # --tolerance wins over --tolerance-seconds when both are given.
        assert cli_main(check + ["--tolerance", "100", "--tolerance-seconds", "0.1"]) == 0
        # modelled_cycles stays exact regardless of the wall-clock gate.
        drift = tmp_path / "BENCH_drift.json"
        drift.write_text(json.dumps({"total_kernel_seconds": 1.0, "modelled_cycles": 11.0}))
        assert cli_main(["bench", "check", str(drift), "--cache-dir", cache, "--tolerance", "500"]) == 1
        # A negative percentage is a usage error, not a silent gate.
        assert cli_main(check + ["--tolerance", "-5"]) == 2
        capsys.readouterr()

    def test_cache_stats_and_reindex_cli(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["reports"] == 4 and stats["index"]["rows"] == 4
        assert cli_main(["cache", "reindex", "--cache-dir", str(tmp_path)]) == 0
        assert "4 indexed" in capsys.readouterr().out

    def test_cache_gc_cli(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        (tmp_path / "ff").mkdir()
        (tmp_path / "ff" / ("f" * 64 + ".json")).write_text("broken{")
        assert cli_main(["cache", "gc", "--cache-dir", str(tmp_path), "--orphaned"]) == 0
        assert "(0 stale, 1 foreign/broken)" in capsys.readouterr().out


class TestIndexerAttachment:
    def test_attach_indexer_is_idempotent_per_cache(self, tmp_path):
        cache = ReportCache(tmp_path)
        first = attach_indexer(cache)
        assert cache.indexer is first
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        from repro.eval.runner import SweepRunner

        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        runner.cache.indexer = first
        session = Session(sim=SIM, runner=runner)
        # Wrapping a runner that already carries an indexer keeps it.
        assert session.cache.indexer is first
        session.close()
        del runtime
