"""Tests for the process-global vector-fallback notice: a batched grid of a
kernel-less model logs "no vector kernel" once — in the parent — and the
shipped suppression snapshot keeps workers quiet without pre-suppressing
notices for kernel-less models outside the job set."""

import logging

import pytest

from repro.bpu.common import StructureSizes
from repro.bpu.composite import make_skl_composite
from repro.engine import EngineRunner, ExperimentScale, SimulationGrid
from repro.engine import runner as runner_module
from repro.engine.registry import _MODELS, register_model
from repro.engine.runner import (
    _vector_fallback_suppressions,
    execute_job_batch,
)
from repro.sim import vector

_SCALE = ExperimentScale(branch_count=400, warmup_branches=50, seed=13)

#: Registry name of the deliberately kernel-less test model.  Every shipped
#: registry model has a vector kernel since the TAGE/Perceptron steppers, so
#: the fallback path is pinned with a 3-bit-counter SKL composite (the SKL
#: engine builder only handles the 2-bit transition tables).
NO_KERNEL = "NoKernelCond"


def _make_no_kernel_model(seed=0):
    return make_skl_composite(
        sizes=StructureSizes(pht_counter_bits=3), name=NO_KERNEL)


def _jobs(models=(NO_KERNEL,), workloads=("505.mcf", "519.lbm")):
    return SimulationGrid(kind="trace", models=models,
                          workloads=workloads, scale=_SCALE).jobs()


@pytest.fixture()
def clean_fallback_state(monkeypatch):
    monkeypatch.setattr(vector, "_FALLBACK_LOGGED", set())
    monkeypatch.setattr(runner_module, "_PROBED_KERNEL_SPECS", {})
    register_model(NO_KERNEL, _make_no_kernel_model, replace=True)
    yield
    _MODELS.pop(NO_KERNEL, None)


class TestFallbackSuppressions:
    def test_probe_logs_once_and_returns_the_snapshot(
            self, caplog, clean_fallback_state):
        jobs = _jobs()
        with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
            quiet = _vector_fallback_suppressions(jobs)
            quiet_again = _vector_fallback_suppressions(jobs)
        notices = [record for record in caplog.records
                   if "no vector kernel" in record.message]
        assert len(notices) == 1
        assert quiet == quiet_again == (NO_KERNEL,)

    def test_kernel_models_produce_no_notice(self, caplog, clean_fallback_state):
        jobs = _jobs(models=("baseline", "ST_SKLCond", "TAGE_SC_L_64KB",
                             "PerceptronBP"),
                     workloads=("505.mcf",))
        with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
            quiet = _vector_fallback_suppressions(jobs)
        assert quiet == ()
        assert not [r for r in caplog.records if "no vector kernel" in r.message]

    def test_mixed_grid_ships_only_the_kernel_less_names(
            self, caplog, clean_fallback_state):
        # Kerneled and kernel-less models in one grid: the snapshot names
        # exactly the kernel-less one, and exactly one notice is logged.
        jobs = _jobs(models=("TAGE_SC_L_8KB", NO_KERNEL, "baseline"),
                     workloads=("505.mcf",))
        with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
            quiet = _vector_fallback_suppressions(jobs)
        notices = [record for record in caplog.records
                   if "no vector kernel" in record.message]
        assert quiet == (NO_KERNEL,)
        assert len(notices) == 1

    def test_snapshot_never_covers_models_outside_the_job_set(
            self, clean_fallback_state):
        # A name logged earlier in the process for an unrelated model must
        # not ride along in this job set's snapshot: a worker that somehow
        # met that model would then drop its first notice on the floor.
        vector._FALLBACK_LOGGED.add("UnrelatedKernelLessModel")
        jobs = _jobs(models=(NO_KERNEL, "baseline"), workloads=("505.mcf",))
        quiet = _vector_fallback_suppressions(jobs)
        assert quiet == (NO_KERNEL,)

    def test_shipped_suppressions_keep_a_worker_batch_quiet(
            self, caplog, clean_fallback_state):
        # Simulate the worker side in-process: a batch that would log gets
        # the parent's snapshot first and stays silent.
        jobs = _jobs(workloads=("505.mcf",))
        with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
            execute_job_batch(jobs, (), (NO_KERNEL,))
        assert not [r for r in caplog.records if "no vector kernel" in r.message]

    def test_parallel_mixed_grid_logs_the_notice_once(
            self, caplog, clean_fallback_state):
        # End-to-end: multiple batches across two workers, one parent notice,
        # kerneled models riding in the same grid.
        jobs = _jobs(models=(NO_KERNEL, "TAGE_SC_L_8KB"))
        with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
            with EngineRunner(workers=2) as runner:
                parallel = runner.run_jobs(jobs)
        notices = [record for record in caplog.records
                   if "no vector kernel" in record.message]
        assert len(notices) == 1
        assert parallel.to_json() == EngineRunner().run_jobs(jobs).to_json()
