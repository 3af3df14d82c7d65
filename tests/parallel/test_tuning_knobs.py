"""Satellite: ``backend``/``workers`` knobs in the tuning surface."""

import pytest

from repro.lulesh.options import LuleshOptions
from repro.tuning.evaluate import Evaluator
from repro.tuning.database import TuningDatabase
from repro.tuning.space import SearchSpace
from repro.simcore.machine import MachineConfig


class TestSpace:
    def test_hpx_full_has_backend_knobs(self):
        space = SearchSpace.hpx_full(30)
        backend = space.knob("backend")
        assert backend.values == ("sim", "process")
        assert backend.default == "sim"
        workers = space.knob("workers")
        assert workers.values == (1, 2, 4)
        assert workers.default == 2

    def test_default_config_stays_on_sim(self):
        cfg = SearchSpace.hpx_full(30).default_config()
        assert cfg["backend"] == "sim"


class TestEvaluator:
    def test_process_config_scored_by_simulated_run(self):
        """Identical task graph => the sim makespan is the process score."""
        opts = LuleshOptions(nx=4, numReg=3)
        space = SearchSpace.hpx_full(4)
        sim_cfg = space.default_config()
        proc_cfg = sim_cfg.replace("backend", "process")
        ev = Evaluator(opts, 4)
        a = ev.evaluate(sim_cfg)
        b = ev.evaluate(proc_cfg)
        assert b.runtime_ns == a.runtime_ns
        assert not b.cached  # distinct trial key (the knob is in the key)

    def test_unsupported_host_poisons_process_configs(self, monkeypatch):
        import repro.parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod, "process_backend_supported", lambda opts=None: False
        )
        opts = LuleshOptions(nx=4, numReg=3)
        space = SearchSpace.hpx_full(4)
        ev = Evaluator(opts, 4)
        out = ev.evaluate(space.default_config().replace("backend", "process"))
        assert out.runtime_ns == 2**62  # never beats a runnable config
        assert out.n_tasks == 0
        # the sim config on the same host still evaluates normally
        ok = ev.evaluate(space.default_config())
        assert ok.runtime_ns < 2**62

    def test_unpicklable_opts_guard(self):
        from repro.parallel import process_backend_supported

        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        assert not process_backend_supported(Unpicklable())


def _fingerprint(machine: MachineConfig) -> dict:
    return {
        "n_cores": machine.n_cores,
        "smt_per_core": machine.smt_per_core,
        "smt_efficiency": machine.smt_efficiency,
        "runtime": "hpx",
    }


class TestDatabaseTolerance:
    def test_old_entries_without_backend_knob_still_resolve(self):
        db = TuningDatabase()
        m = MachineConfig()
        shape = {"nx": 30, "numReg": 11, "threads": 24}
        db.record(_fingerprint(m), shape,
                  {"nodal_partition": 2048, "elements_partition": 4096},
                  runtime_ns=10, strategy="grid", seed=0, n_trials=1)
        assert db.tuned_partition_sizes(m, "hpx", 30, 11, 24) == (2048, 4096)

    def test_new_entries_with_backend_knob_resolve_too(self):
        db = TuningDatabase()
        m = MachineConfig()
        shape = {"nx": 30, "numReg": 11, "threads": 24}
        cfg = {"nodal_partition": 1024, "elements_partition": 2048,
               "backend": "process", "workers": 4}
        db.record(_fingerprint(m), shape, cfg,
                  runtime_ns=10, strategy="grid", seed=0, n_trials=1)
        assert db.tuned_partition_sizes(m, "hpx", 30, 11, 24) == (1024, 2048)
        assert db.tuned_config(_fingerprint(m), shape)["backend"] == "process"

    def test_entries_with_removed_dispatch_knob_still_resolve(self):
        db = TuningDatabase()
        m = MachineConfig()
        shape = {"nx": 30, "numReg": 11, "threads": 24}
        cfg = {"nodal_partition": 1024, "elements_partition": 2048,
               "backend": "process", "workers": 2, "dispatch": "dataflow"}
        db.record(_fingerprint(m), shape, cfg,
                  runtime_ns=10, strategy="grid", seed=0, n_trials=1)
        assert db.tuned_partition_sizes(m, "hpx", 30, 11, 24) == (1024, 2048)

    def test_roundtrip_through_disk(self, tmp_path):
        path = str(tmp_path / "tuning.json")
        db = TuningDatabase(path)
        m = MachineConfig()
        shape = {"nx": 10, "numReg": 4, "threads": 8}
        db.record(_fingerprint(m), shape,
                  {"nodal_partition": 512, "elements_partition": 512,
                   "backend": "sim", "workers": 2},
                  runtime_ns=5, strategy="grid", seed=0, n_trials=1)
        db.save()
        again = TuningDatabase.load(path)
        assert again.tuned_config(_fingerprint(m), shape)["workers"] == 2
