"""Device providers: the device-independent codegen interface of Table 1.

"HetExchange groups the collection of all the utility functions into a
device-independent interface, and offers a collection of device providers
implementing said interface; a CPU- and a GPU-specific provider at the
moment."  Every relational operator has ONE codegen body; the provider it
is handed decides how state access, reductions, atomics and the final
compilation step are rendered — Figure 3's "providers specialize code to
the target device type".

In this reproduction the generated "IR" is Python source over NumPy
blocks.  ``convert_to_machine_code`` is :func:`compile` (the CPU provider's
LLVM-to-x86 step; the GPU provider's LLVM-to-PTX-to-SASS step) and
``load_machine_code`` executes the code object into a namespace that
carries the provider's runtime intrinsics.

Of Table 1's inventory, the code-generation half lives here (thread
geometry, worker-scoped accumulation, ``convertToMachineCode`` /
``loadMachineCode``).  The memory half — ``allocStateVar`` /
``freeStateVar`` and ``getBuffer`` / ``releaseBuffer`` — is served at
run time, per memory node, by :class:`~repro.memory.managers.MemoryManager`
and :class:`~repro.memory.managers.BlockManagerSet`, which the executor
and the mem-move call directly.

The observable provider differences (asserted by tests):

* the CPU provider renders worker-scoped accumulation as a plain ``+=``
  (single thread per worker: "the worker-scoped atomic and the
  neighborhood-local reduction will be optimized out");
* the GPU provider renders the same blueprint as a neighbourhood (warp)
  reduction followed by a worker-scoped atomic;
* ``threadIdInWorker`` / ``#threadsInWorker`` are the constants 0 / 1 on
  the CPU and symbolic grid values on the GPU.
"""

from __future__ import annotations

from types import CodeType
from typing import Callable

import numpy as np

from ..hardware.topology import DeviceType

__all__ = ["DeviceProvider", "CPUProvider", "GPUProvider", "provider_for"]


def _gpu_neighborhood_reduce(values: float) -> float:
    """Runtime intrinsic: reduce thread-local partials within a warp.

    At block granularity the neighbourhood reduction is already complete,
    so this is the identity — but it keeps the generated GPU code shaped
    like Listing 1's ``neighborhood_reduce`` call.
    """
    return values


def _gpu_atomic_add(acc: dict, alias: str, value) -> None:
    """Runtime intrinsic: worker-scoped atomicAdd on a state accumulator."""
    acc[alias] = acc[alias] + value


def _gpu_atomic_min(acc: dict, alias: str, value) -> None:
    acc[alias] = min(acc[alias], value)


def _gpu_atomic_max(acc: dict, alias: str, value) -> None:
    acc[alias] = max(acc[alias], value)


class DeviceProvider:
    """Base provider; see Table 1 of the paper for the method inventory."""

    name: str

    # -- SIMT geometry ----------------------------------------------------------

    def threads_in_worker(self) -> str:
        """Source expression for #threadsInWorker."""
        raise NotImplementedError

    def thread_id_in_worker(self) -> str:
        """Source expression for threadIdInWorker."""
        raise NotImplementedError

    # -- codegen hooks ------------------------------------------------------------

    def emit_accumulate(self, alias: str, value_expr: str, kind: str = "sum") -> list[str]:
        """Render a worker-scoped accumulation of ``value_expr`` into the
        state's accumulator ``alias`` (``state.acc[alias]``)."""
        raise NotImplementedError

    def emit_kernel_header(self, name: str) -> list[str]:
        """Comment block describing how the pipeline is launched."""
        raise NotImplementedError

    # -- compilation (convertToMachineCode / loadMachineCode) ----------------------

    def optimize(self, source: str) -> str:
        """Final IR-level clean-up before machine-code generation."""
        # Drop consecutive blank lines; both backends do at least this much.
        lines = source.splitlines()
        cleaned = []
        for line in lines:
            if line.strip() == "" and cleaned and cleaned[-1].strip() == "":
                continue
            cleaned.append(line)
        return "\n".join(cleaned) + "\n"

    def convert_to_machine_code(self, source: str, name: str) -> CodeType:
        return compile(source, filename=f"<jit:{self.name}:{name}>", mode="exec")

    def load_machine_code(self, code: CodeType, fn_name: str) -> Callable:
        namespace = self.runtime_namespace()
        exec(code, namespace)
        return namespace[fn_name]

    def runtime_namespace(self) -> dict:
        """Globals visible to generated code (the provider's intrinsics)."""
        return {"np": np}


class CPUProvider(DeviceProvider):
    """x86 backend: scalar pipelines, one thread per worker."""

    name = "cpu"

    def threads_in_worker(self) -> str:
        return "1"

    def thread_id_in_worker(self) -> str:
        return "0"

    def emit_accumulate(self, alias: str, value_expr: str, kind: str = "sum") -> list[str]:
        # Single thread per worker: the atomic is optimised out.
        acc = f"state.acc[{alias!r}]"
        if kind == "sum":
            return [f"{acc} += {value_expr}"]
        if kind == "min":
            return [f"{acc} = min({acc}, {value_expr})"]
        if kind == "max":
            return [f"{acc} = max({acc}, {value_expr})"]
        raise ValueError(f"unknown accumulation kind {kind!r}")

    def emit_kernel_header(self, name: str) -> list[str]:
        return [
            f"# pipeline {name}: CPU provider — compiled for x86-64,",
            "# invoked once per input block by the worker thread.",
        ]


class GPUProvider(DeviceProvider):
    """NVPTX-style backend: data-parallel kernels with atomics."""

    name = "gpu"

    #: grid geometry the launches use; "the compiler knows better" than
    #: hand-tuned magic numbers (paper Section 7), so one sane default.
    grid_size = 160
    block_size = 1024

    def threads_in_worker(self) -> str:
        return "_threads_in_worker"

    def thread_id_in_worker(self) -> str:
        return "_thread_id_in_worker"

    def emit_accumulate(self, alias: str, value_expr: str, kind: str = "sum") -> list[str]:
        # Listing 1, lines 27-29: neighbourhood reduce, then the
        # neighbourhood leader issues one worker-scoped atomic.
        op = {"sum": "_atomic_add", "min": "_atomic_min", "max": "_atomic_max"}[kind]
        return [
            f"_nh_acc = _neighborhood_reduce({value_expr})",
            f"{op}(state.acc, {alias!r}, _nh_acc)  # neighbourhood leader only",
        ]

    def emit_kernel_header(self, name: str) -> list[str]:
        return [
            f"# pipeline {name}: GPU provider — compiled via PTX,",
            f"# launched as a <<<{self.grid_size}, {self.block_size}>>> kernel per block;",
            "# each thread strides the block with step #threadsInWorker.",
        ]

    def runtime_namespace(self) -> dict:
        namespace = super().runtime_namespace()
        namespace.update(
            _neighborhood_reduce=_gpu_neighborhood_reduce,
            _atomic_add=_gpu_atomic_add,
            _atomic_min=_gpu_atomic_min,
            _atomic_max=_gpu_atomic_max,
            _threads_in_worker=self.grid_size * self.block_size,
            _thread_id_in_worker=0,
        )
        return namespace


_PROVIDERS = {DeviceType.CPU: CPUProvider(), DeviceType.GPU: GPUProvider()}


def provider_for(device: DeviceType) -> DeviceProvider:
    """The singleton provider for a device type."""
    return _PROVIDERS[device]
