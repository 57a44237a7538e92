"""Smoke tests for the experiment harnesses (small scales).

The full paper-shape assertions live in benchmarks/; these tests verify
the harness plumbing (series structure, notes, sentinels) cheaply.
"""

import math

import pytest

from fingerprint import drive
from repro.micro.harness import MicroSettings, run_scaleup, run_sizeup
from repro.ssb.harness import (
    FAILED,
    HarnessSettings,
    run_fig4,
    run_fig5,
    run_fig6,
)

SMALL = HarnessSettings(physical_sf=0.002, block_tuples=256, segment_rows=1024)
MICRO = MicroSettings(physical_rows=20_000, block_tuples=512, segment_rows=2048)


class TestSSBHarness:
    def test_fig4_structure(self):
        result = drive(run_fig4, SMALL, queries=["Q1.1", "Q2.2"])
        assert set(result.seconds) == {"DBMS C", "Proteus CPUs",
                                       "Proteus GPUs", "DBMS G"}
        assert result.seconds["Proteus GPUs"]["Q1.1"] > 0
        assert math.isnan(result.seconds["DBMS G"]["Q2.2"])
        assert result.working_set["Q1.1"] > 0

    def test_fig5_structure(self):
        result = drive(run_fig5, SMALL, queries=["Q1.1", "Q4.3"])
        assert "Proteus Hybrid" in result.seconds
        assert result.seconds["DBMS G"]["Q4.3"] == FAILED
        assert "DBMS G Q4.3" in result.notes

    def test_fig6_structure(self):
        result = drive(run_fig6, SMALL, core_counts=(1, 4), gpu_settings=(0,),
                       groups=(1,))
        # only the GPU counts that were asked for: no 2-GPU sweep rides
        # along with gpu_settings=(0,)
        assert set(result["speedups"]) == {(0, 1)}
        speedups = result["speedups"][(0, 1)]
        assert set(speedups) == {1, 4}
        assert speedups[1] == pytest.approx(1.0, rel=0.05)
        assert speedups[4] > 2.0

    def test_speedup_helper(self):
        result = drive(run_fig4, SMALL, queries=["Q1.1"])
        ratio = result.speedup("Proteus GPUs", "DBMS C", "Q1.1")
        assert ratio == pytest.approx(
            result.seconds["DBMS C"]["Q1.1"]
            / result.seconds["Proteus GPUs"]["Q1.1"])

    def test_config_modes(self):
        settings = HarnessSettings()
        assert settings.config("cpu").uses_cpu
        assert settings.config("gpu").uses_gpu
        assert settings.config("hybrid").is_hybrid
        with pytest.raises(ValueError):
            settings.config("quantum")


class TestMicroHarness:
    def test_scaleup_structure(self):
        result = drive(run_scaleup, "sum", MICRO, core_counts=(0, 1, 4),
                       gpu_counts=(0, 1))
        assert (0, 1) in result["times"] and (1, 0) in result["times"]
        assert (0, 0) not in result["times"]
        assert result["bare_cpu"] > 0 and result["bare_gpu"] > 0
        assert result["speedups"][(0, 4)] > result["speedups"][(0, 1)]

    def test_sizeup_structure(self):
        result = drive(run_sizeup, "join", MICRO, sizes_gb=(0.25, 1.0), device="gpu")
        assert set(result["with_hetexchange"]) == {0.25, 1.0}
        assert result["overhead"][1.0] < result["overhead"][0.25] + 0.05

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError, match="unknown microbenchmark"):
            run_scaleup("median", MICRO, core_counts=(1,), gpu_counts=(0,))

    def test_join_count_is_correct(self):
        """The microbenchmark queries return real results too."""
        from repro.engine.config import ExecutionConfig
        from repro.micro.harness import _engine_for, _plan

        engine = _engine_for("join", MICRO, sum_bytes=1e9)
        result = engine.query(_plan("join"),
                              ExecutionConfig.hybrid(2, [0], block_tuples=512))
        # every probe key matches by construction
        assert result.value("matches") == MICRO.physical_rows
