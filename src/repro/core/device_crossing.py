"""Device-crossing operators: cpu2gpu and gpu2cpu (Section 3.1).

"Cpu2gpu copies the CPU context to the GPU and transfers control flow by
launching a GPU kernel, while gpu2cpu transfers the GPU context to the CPU
and starts a CPU task.  ...  GPU programming frameworks do not support
launching CPU tasks in the middle of the execution ...  HetExchange
implements this functionality by breaking the gpu2cpu operator into two
parts, one that runs on each device.  These parts communicate using an
asynchronous queue."

Runtime shape in this reproduction:

* :func:`cpu2gpu` is one kernel launch, run by the GPU worker with
  ``yield from`` as a step of its own pipeline: it serialises on the
  GPU's compute engine, charges the launch latency, and places the
  kernel's bandwidth demand on the device's HBM resource.  The *codegen*
  half of cpu2gpu is the provider switch (the consumer pipeline is
  compiled with the GPU provider).
* :class:`Gpu2Cpu` is the asynchronous queue from a producing kernel back
  to a CPU task, plus the CPU-side task-spawn cost.
"""

from __future__ import annotations

from typing import Any

from ..hardware.costmodel import CostModel, WorkRequest
from ..hardware.sim import Event, Simulator, Store
from ..hardware.topology import Gpu

__all__ = ["cpu2gpu", "Gpu2Cpu"]


def cpu2gpu(sim: Simulator, gpu: Gpu, work: WorkRequest):
    """DES sub-generator: run one kernel's worth of work on ``gpu``.

    Holds the compute engine for the kernel's duration (kernels from
    the same stream serialise), pays the launch latency, then streams
    the kernel's demand through device memory.  A worker aborted inside
    the kernel gives the engine back at once; one aborted while still
    queued for it passes the grant on when it comes.
    """
    grant = gpu.compute.acquire()
    try:
        yield grant
        yield sim.timeout(work.setup_seconds)
        yield gpu.memory.bandwidth.submit(
            work.work_bytes, rate_cap=work.rate_cap, label=("kernel:{}", gpu.name)
        )
    finally:
        if grant.triggered:
            _hand_back(grant)
        else:
            grant.add_callback(_hand_back)


def _hand_back(grant: Event) -> None:
    if grant.ok:  # a grant failed by a device loss holds nothing
        grant.value.release()  # a grant's value is the FifoResource


class Gpu2Cpu:
    """Asynchronous queue from GPU kernels back to CPU tasks."""

    def __init__(self, sim: Simulator, cost: CostModel, capacity: int = 16,
                 name: str = ""):
        self.sim = sim
        self.cost = cost
        self.queue: Store = sim.store(capacity=capacity, name=name or "gpu2cpu")

    def send(self, item: Any):
        """GPU half: insert a task into the queue (returns a put event)."""
        return self.queue.put(item)

    def receive(self):
        """CPU half: wait for a task; charges the CPU task-spawn cost.

        DES sub-process; returns the dequeued item (or ``Store.END``).
        """
        got = self.queue.get()
        yield got
        item = got.value
        if item is not Store.END:
            yield self.sim.timeout(self.cost.task_spawn_seconds)
        return item
