"""Unit tests for the persistent tuning database."""

import json
import os

import pytest

from repro.lulesh.errors import LuleshError
from repro.simcore.machine import MachineConfig
from repro.tuning.database import SCHEMA, TuningDatabase, default_db_path
from repro.tuning.errors import TuningDBError, TuningError

FP = {"n_cores": 24, "smt_per_core": 2, "smt_efficiency": 0.49,
      "runtime": "hpx"}


def shape(nx, numReg=11, threads=24):
    return {"nx": nx, "numReg": numReg, "threads": threads}


def record(db, nx, nodal, elems, **kw):
    db.record(
        FP, shape(nx, **kw),
        {"nodal_partition": nodal, "elements_partition": elems},
        runtime_ns=1000, strategy="exhaustive", seed=0, n_trials=4,
    )


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(TuningDBError, TuningError)
        assert issubclass(TuningDBError, ValueError)
        assert issubclass(TuningError, LuleshError)


class TestDefaultPath:
    def test_respects_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_db_path() == str(
            tmp_path / "lulesh-hpx" / "tuning.json"
        )

    def test_falls_back_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_db_path().endswith(
            os.path.join(".cache", "lulesh-hpx", "tuning.json")
        )


class TestRoundTrip:
    def test_missing_file_is_empty_db(self, tmp_path):
        db = TuningDatabase.load(str(tmp_path / "none.json"))
        assert db.n_entries == 0
        assert len(db.memo) == 0

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "db.json")
        db = TuningDatabase(path)
        record(db, 45, 512, 256)
        db.memo.put("abc", {"runtime_ns": 7, "utilization": 0.5, "n_tasks": 3})
        db.save()
        again = TuningDatabase.load(path)
        assert again.n_entries == 1
        assert again.lookup(FP, shape(45))["config"]["nodal_partition"] == 512
        assert again.memo.data["abc"]["runtime_ns"] == 7

    def test_save_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "db.json")
        db = TuningDatabase(path)
        record(db, 45, 512, 256)
        db.save()
        assert os.path.exists(path)

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "db.json")
        db = TuningDatabase(path)
        db.save()
        assert not os.path.exists(path + ".tmp")

    def test_save_without_path_raises(self):
        with pytest.raises(TuningDBError):
            TuningDatabase().save()

    def test_record_overwrites_same_context(self, tmp_path):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        record(db, 45, 1024, 512)
        assert db.n_entries == 1
        assert db.lookup(FP, shape(45))["config"]["nodal_partition"] == 1024


class TestCorruption:
    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(TuningDBError):
            TuningDatabase.load(str(path))

    def test_torn_write_raises(self, tmp_path):
        # the torn-write pattern the checkpoint layer guards against:
        # a truncated but syntactically started JSON document
        path = str(tmp_path / "db.json")
        db = TuningDatabase(path)
        record(db, 45, 512, 256)
        db.save()
        full = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(full[: len(full) // 2])
        with pytest.raises(TuningDBError):
            TuningDatabase.load(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
        with pytest.raises(TuningDBError):
            TuningDatabase.load(str(path))

    def test_non_dict_payload_raises(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[1,2,3]", encoding="utf-8")
        with pytest.raises(TuningDBError):
            TuningDatabase.load(str(path))

    def test_malformed_sections_raise(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(
            json.dumps({"schema": SCHEMA, "entries": [], "memo": {}}),
            encoding="utf-8",
        )
        with pytest.raises(TuningDBError):
            TuningDatabase.load(str(path))


class TestNearest:
    def test_exact_match_wins(self):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        record(db, 60, 1024, 1024)
        entry = db.nearest(FP, shape(60))
        assert entry["config"]["nodal_partition"] == 1024

    def test_nearest_nx_for_unseen_size(self):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        record(db, 90, 4096, 512)
        assert db.nearest(FP, shape(50))["shape"]["nx"] == 45
        assert db.nearest(FP, shape(80))["shape"]["nx"] == 90

    def test_tie_breaks_toward_smaller_nx(self):
        db = TuningDatabase()
        record(db, 40, 512, 256)
        record(db, 60, 1024, 1024)
        assert db.nearest(FP, shape(50))["shape"]["nx"] == 40

    def test_matching_regions_and_threads_preferred(self):
        db = TuningDatabase()
        record(db, 45, 512, 256, threads=8)
        record(db, 90, 4096, 512, threads=24)
        # nx=46 is closer to 45, but the 24-thread entry matches the context
        assert db.nearest(FP, shape(46, threads=24))["shape"]["nx"] == 90

    def test_unknown_fingerprint(self):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        other = dict(FP, n_cores=4)
        assert db.nearest(other, shape(45)) is None


class TestTunedPartitionSizes:
    def test_returns_learned_sizes(self):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        m = MachineConfig()
        assert db.tuned_partition_sizes(m, "hpx", 45, 11, 24) == (512, 256)

    def test_nearest_fallback(self):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        m = MachineConfig()
        assert db.tuned_partition_sizes(m, "hpx", 33, 11, 24) == (512, 256)

    def test_none_without_entries(self):
        assert TuningDatabase().tuned_partition_sizes(
            MachineConfig(), "hpx", 45, 11, 24
        ) is None

    def test_none_when_config_lacks_partitions(self):
        db = TuningDatabase()
        db.record(FP, shape(45), {"omp_schedule": "static"},
                  runtime_ns=1, strategy="exhaustive", seed=0, n_trials=1)
        assert db.tuned_partition_sizes(
            MachineConfig(), "hpx", 45, 11, 24
        ) is None

    def test_fingerprint_separates_machines(self):
        db = TuningDatabase()
        record(db, 45, 512, 256)
        assert db.tuned_partition_sizes(
            MachineConfig(n_cores=4), "hpx", 45, 11, 24
        ) is None


class TestDriverConsultsDatabase:
    def test_run_hpx_uses_tuned_sizes(self):
        from repro.core.driver import run_hpx
        from repro.lulesh.options import LuleshOptions
        from repro.obs.registry import CounterRegistry

        db = TuningDatabase()
        m = MachineConfig()
        db.record(
            {"n_cores": m.n_cores, "smt_per_core": m.smt_per_core,
             "smt_efficiency": m.smt_efficiency, "runtime": "hpx"},
            {"nx": 6, "numReg": 2, "threads": 4},
            {"nodal_partition": 32, "elements_partition": 16},
            runtime_ns=1, strategy="exhaustive", seed=0, n_trials=1,
        )
        opts = LuleshOptions(nx=6, numReg=2)
        registry = CounterRegistry()
        tuned = run_hpx(opts, 4, 1, registry=registry, tuning=db)
        nodal = registry.counter("/hpx/partition-size/nodal")
        elems = registry.counter("/hpx/partition-size/elements")
        assert nodal.sample_value() == 32
        assert elems.sample_value() == 16
        explicit = run_hpx(opts, 4, 1, nodal_partition=32,
                           elements_partition=16)
        assert tuned.runtime_ns == explicit.runtime_ns

    def test_explicit_sizes_beat_database(self):
        from repro.core.driver import run_hpx
        from repro.lulesh.options import LuleshOptions

        db = TuningDatabase()
        m = MachineConfig()
        db.record(
            {"n_cores": m.n_cores, "smt_per_core": m.smt_per_core,
             "smt_efficiency": m.smt_efficiency, "runtime": "hpx"},
            {"nx": 6, "numReg": 2, "threads": 4},
            {"nodal_partition": 32, "elements_partition": 16},
            runtime_ns=1, strategy="exhaustive", seed=0, n_trials=1,
        )
        opts = LuleshOptions(nx=6, numReg=2)
        with_db = run_hpx(opts, 4, 1, nodal_partition=64,
                          elements_partition=64, tuning=db)
        plain = run_hpx(opts, 4, 1, nodal_partition=64,
                        elements_partition=64)
        assert with_db.runtime_ns == plain.runtime_ns


class TestConcurrentWriters:
    """Campaign lanes and parallel tunes share one DB file safely."""

    def test_parallel_thread_writers_drop_nothing(self, tmp_path):
        import threading

        path = str(tmp_path / "tuning.json")
        n_writers, per_writer = 8, 5
        barrier = threading.Barrier(n_writers)
        errors = []

        def writer(idx):
            try:
                barrier.wait()
                for j in range(per_writer):
                    db = TuningDatabase.load(path)
                    record(db, nx=100 * idx + j, nodal=idx, elems=j)
                    db.memo.data[f"trial-{idx}-{j}"] = {"runtime_ns": idx * j}
                    db.save()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(n_writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        final = TuningDatabase.load(path)  # parses => never torn
        assert final.n_entries == n_writers * per_writer
        assert len(final.memo.data) == n_writers * per_writer

    def test_stale_writer_merges_instead_of_clobbering(self, tmp_path):
        path = str(tmp_path / "tuning.json")
        stale = TuningDatabase(path)  # loaded (empty) before the other save
        record(stale, nx=10, nodal=1, elems=1)

        other = TuningDatabase(path)
        record(other, nx=20, nodal=2, elems=2)
        other.save()

        stale.save()  # publishes without ever having seen nx=20
        final = TuningDatabase.load(path)
        assert final.lookup(FP, shape(10)) is not None
        assert final.lookup(FP, shape(20)) is not None

    def test_same_key_conflict_writer_wins(self, tmp_path):
        path = str(tmp_path / "tuning.json")
        first = TuningDatabase(path)
        record(first, nx=10, nodal=1, elems=1)
        first.save()

        second = TuningDatabase.load(path)
        record(second, nx=10, nodal=9, elems=9)
        second.save()
        final = TuningDatabase.load(path)
        entry = final.lookup(FP, shape(10))
        assert entry["config"]["nodal_partition"] == 9

    def test_no_lock_or_tmp_litter_in_entry_count(self, tmp_path):
        import os

        path = str(tmp_path / "tuning.json")
        db = TuningDatabase(path)
        record(db, nx=10, nodal=1, elems=1)
        db.save()
        leftovers = [
            f for f in os.listdir(tmp_path) if f.endswith(".tmp")
        ]
        assert leftovers == []
