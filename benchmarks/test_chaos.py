"""Chaos tier: fault injection under load, graceful typed degradation.

The acceptance scenario for the chaos machinery: a GPU is killed in the
middle of a served batch (plus DMA stragglers and spurious aborts in the
slow tier) and the server must degrade, not corrupt — every submitted
query reaches a typed terminal status (``done`` / ``failed`` with an
``error_class`` / ``shed``), every completed query's rows are
byte-identical to the fault-free reference (retried queries re-run
CPU-only via the placer's ``exclude_devices``), the admission budget and
staging arenas are fully released, and the whole run replays
deterministically per :class:`FaultPlan` seed.

The fast smoke (default tier) injects a single mid-batch device loss;
the ``--runslow`` tier drives a Poisson open-loop arrival stream into
the full fault mix and replays it to prove determinism.
"""

import pytest

from repro.engine.config import ExecutionConfig, QoS
from repro.engine.faults import (
    RETRYABLE_CLASSES,
    DeviceLossFault,
    FaultPlan,
    RetryPolicy,
    SpuriousAbortFault,
    StragglerFault,
)
from scenario import Arrival, OpenLoop, Scenario, Tables, run_scenario

#: the mixed batch the device loss lands in: GPU-placed victims plus
#: CPU-only bystanders that must ride through the loss untouched
SMOKE_BATCH = ["Q1.1", "Q2.1", "Q3.1", "Q1.2"]

CHAOS_BACKGROUND = ["Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q1.2", "Q2.2"]
CHAOS_OPEN_LOOP = ("Q1.1", "Q1.2", "Q1.3")

TYPED_CLASSES = RETRYABLE_CLASSES + ("fatal",)


def _chaos(settings, arrivals, **server) -> Scenario:
    """The chaos acceptance contract is the runner's: every session
    terminal and typed, every completed one byte-identical to the
    fault-free reference (retried queries re-run CPU-only), no budget
    or staging leak."""
    return Scenario(
        arrivals,
        server={"max_concurrent": 4, **server},
        tables=Tables(settings.physical_sf, settings.seed, None, settings.segment_rows),
    )


def _assert_typed(report):
    assert report.sessions, "the drive produced no sessions at all"
    for session in report.failed:
        assert session.error_class in TYPED_CLASSES, session.name


class TestChaosSmoke:
    """Fast single-fault smoke: runs in the default (tier-1) suite."""

    def test_device_loss_mid_batch_degrades_gracefully(self, settings):
        gpu_cfg = ExecutionConfig.gpu_only([0, 1], block_tuples=settings.block_tuples)
        cpu_cfg = ExecutionConfig.cpu_only(4, block_tuples=settings.block_tuples)
        arrivals = tuple(
            Arrival(qid, cpu_cfg if index % 2 else gpu_cfg, name=f"{qid}#{index}")
            for index, qid in enumerate(SMOKE_BATCH)
        )
        plan = FaultPlan(
            seed=7,
            device_losses=(DeviceLossFault(gpu_id=0, at_seconds=1e-3),),
        )
        report = run_scenario(
            _chaos(
                settings,
                arrivals,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=3),
            )
        ).report
        print("\n" + report.summary())
        _assert_typed(report)
        # the fault actually fired and at least one GPU query retried
        # onto a device-reduced placement with byte-identical rows
        assert report.faults["device_losses"] == 1
        assert report.retries >= 1
        assert report.fallbacks >= 1
        assert all(s.status == "done" for s in report.sessions)


@pytest.mark.slow
class TestChaosUnderLoad:
    """The full chaos tier: Poisson arrivals into the full fault mix."""

    @staticmethod
    def _scenario(settings) -> Scenario:
        plan = FaultPlan(
            seed=23,
            device_losses=(DeviceLossFault(gpu_id=0, at_seconds=5e-3),),
            straggler=StragglerFault(probability=0.25, multiplier=5.0),
            aborts=(
                SpuriousAbortFault(at_seconds=2e-3),
                SpuriousAbortFault(at_seconds=8e-3),
            ),
        )
        gpu_cfg = ExecutionConfig.gpu_only([0, 1], block_tuples=settings.block_tuples)
        hybrid_cfg = ExecutionConfig.hybrid(
            4, [0, 1], block_tuples=settings.block_tuples
        )
        arrivals = (
            *(
                Arrival(
                    qid,
                    hybrid_cfg if index % 2 else gpu_cfg,
                    name=f"{qid}#bg{index}",
                    qos=QoS.batch(),
                )
                for index, qid in enumerate(CHAOS_BACKGROUND)
            ),
            OpenLoop(
                CHAOS_OPEN_LOOP, gpu_cfg, rate_qps=100.0, arrivals=8, seed=5,
                name="chaos",
            ),
        )
        return _chaos(
            settings,
            arrivals,
            max_queue_depth=8,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=4),
        )

    def test_poisson_load_survives_full_fault_mix(self, settings):
        report = run_scenario(self._scenario(settings)).report
        print("\n" + report.summary())
        _assert_typed(report)
        # the chaos actually happened: the GPU died, DMAs straggled, and
        # retries moved real queries onto device-reduced placements
        assert report.faults["device_losses"] == 1
        assert report.faults["stragglers"] > 0
        assert report.retries >= 1
        assert report.fallbacks >= 1
        # degradation, not collapse: the batch still makes progress and
        # nothing fails with an untyped (fatal) class
        assert len(report.completed) >= len(CHAOS_BACKGROUND)
        assert not report.failures_by_class().get("fatal")

    def test_chaos_is_deterministic_per_seed(self, settings):
        scenario = self._scenario(settings)
        assert run_scenario(scenario).signature() == run_scenario(scenario).signature()
