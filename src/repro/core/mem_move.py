"""The mem-move operator: the data-locality trait converter (Section 3.2).

"The mem-move operator is responsible for moving data between node-local
memory of producers and consumers...  In case the data are already local
to the consumer, it only forwards the block handle, without doing any data
transfers."

The runtime here reproduces the operator's two halves, plus the
transfer-side optimisations that hide PCIe latency behind compute or
amortise it:

* the **producer half** runs ahead of the consumer.
  :meth:`MemMove.prefetch_proc` is a double-buffered prefetch pipeline:
  while the consumer computes on the current block it acquires staging
  blocks and launches asynchronous DMAs for up to ``prefetch_depth``
  further blocks, under **credit-based backpressure** — a staging credit
  is held from :meth:`schedule` until the consumer's
  :meth:`release_staged` epilogue, so at most ``prefetch_depth`` staging
  slots per target node are ever outstanding and staging memory stays
  bounded and accounted through the shared
  :class:`~repro.memory.managers.BlockManagerSet` arenas.
  ``prefetch_depth=1`` turns the overlap off: with a single staging
  buffer the transfer sits on the consumer's critical path (the worker
  runs :meth:`schedule` inline and waits), which is the baseline the
  fig5-tier overlap benchmark compares against;
* **topology-routed DMA**: :meth:`schedule` enumerates the candidate
  interconnect routes (:meth:`Server.paths_between
  <repro.hardware.topology.Server.paths_between>` — e.g. the direct
  remote-read path versus the NUMA hop through the destination socket's
  staging arena) and prices each against live per-link queue depths
  with :meth:`CostModel.transfer_demand
  <repro.hardware.costmodel.CostModel.transfer_demand>`, launching the
  DMA on the cheapest route (strict ``<`` comparison in enumeration
  order, so ties fall back deterministically to the first enumerated
  route).  "Direct" is only the *name of a route* (``qpi-direct``, the
  remote read without a staging hop), never a selection policy;
* **batched remote acquires**: each :meth:`schedule` takes exactly one
  slot from the target node's arena, and the round trip of asking a
  remote block manager (``2 * REMOTE_ACQUIRE_LATENCY``) is charged to the
  DMA of the 1st and then every ``REMOTE_BATCH_SIZE``-th acquire of a
  (block node, target node) pair.  The count lives as long as this
  mem-move, i.e. one phase, so a phase starts cold whatever the engine
  ran before, and no pre-acquired slot is ever left to return;
* the **consumer half** is just ``yield handle.transfer_done`` in the
  consuming worker (Listing 1, pipeline 10: "wait DMA transfer for b to
  finish"), followed by :meth:`release_staged` once the block has been
  processed.  A handle carries a transfer exactly when this phase's
  mem-move staged it, so the transfer is also the staging mark.

Whether a consumer needs a transfer at all is decided in one place,
:meth:`MemMove.needs_move`: the prefetcher, the worker's inline mem-move
and the router's "reads in place" hook all ask it.

``transfer_done`` is the DMA's own process: it completes when the block
has landed and fails with the transfer's error (a :class:`TransferTimeout`,
or a link poisoned by a device loss), which reaches a consumer parked on
it.  A failed transfer nobody waits on (its query was aborted) fails
quietly; :meth:`MemMove.abort_outstanding` returns its staging slot.

The DMA process occupies every interconnect link on the chosen path
*and* the host DRAM nodes it reads/writes/bounces through — this
coupling is what produces the paper's compute/transfer interference
(Figure 6) and the PCIe-bound GPU executions of Figure 5.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hardware.costmodel import CostModel
from ..hardware.sim import Event, Name, Simulator, Store
from ..hardware.topology import DeviceType, Path, Server
from ..memory.block import Block, BlockHandle
from ..memory.managers import (
    REMOTE_ACQUIRE_LATENCY,
    REMOTE_BATCH_SIZE,
    BlockManagerSet,
)

__all__ = [
    "MemMove",
    "TransferTimeout",
    "DMA_WEIGHT",
    "DEFAULT_PREFETCH_DEPTH",
    "path_transfer_jobs",
]


class TransferTimeout(RuntimeError):
    """A DMA exceeded the configured transfer deadline.

    Only raised when a ``dma_timeout`` is armed (the chaos tier's
    straggler detection); the scheduler's failure classifier treats it
    as retryable, like :class:`~repro.hardware.topology.DeviceLostError`.
    """

#: memory-controller arbitration weight of DMA streams relative to core
#: load/store traffic (transfers keep most of their bandwidth when many
#: cores saturate the bus; interference remains but is bounded)
DMA_WEIGHT = 3.0

#: staging blocks a consumer instance may hold in flight ahead of its
#: compute (1 = overlap off: the transfer sits on the critical path)
DEFAULT_PREFETCH_DEPTH = 2


def path_transfer_jobs(path: Path, nbytes: float, rate_cap: float,
                       label: Name) -> list[Event]:
    """Occupy every resource of one interconnect route for a transfer.

    The single definition of what "a transfer crosses ``path``" means —
    one rate-capped bandwidth job per link, one DMA-weighted job per
    host DRAM node touched/bounced — shared by the mem-move's DMA
    process and the bare-GPU UVA stream so both price routes
    identically.
    """
    jobs = [
        link.bandwidth.submit(nbytes, rate_cap=rate_cap, label=label)
        for link in path.links
    ]
    jobs.extend(
        dram.bandwidth.submit(nbytes, rate_cap=rate_cap,
                              label=("{}-host", label), weight=DMA_WEIGHT)
        for dram in path.drams
    )
    return jobs


class MemMove:
    """Data-flow operator fixing locality ahead of a consumer."""

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        blocks: BlockManagerSet,
        cost: CostModel,
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        straggler: Optional[Callable[[], float]] = None,
        dma_timeout: Optional[float] = None,
    ):
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if dma_timeout is not None and dma_timeout <= 0:
            raise ValueError("dma_timeout must be positive (or None)")
        self.sim = sim
        self.server = server
        self.blocks = blocks
        self.cost = cost
        self.prefetch_depth = prefetch_depth
        #: chaos hook sampled once per launched DMA: a latency
        #: multiplier >= 1 (1.0 = no straggling; the fault injector's
        #: seeded RNG keeps the sampling deterministic under DES order)
        self.straggler = straggler
        #: typed TransferTimeout when one DMA's end-to-end latency
        #: (including straggling) exceeds this many simulated seconds
        self.dma_timeout = dma_timeout
        self.transfers = 0
        self.bytes_moved = 0.0
        self.forwards = 0
        #: transfers launched per chosen route key (introspection/tests)
        self.path_counts: dict[str, int] = {}
        #: staging slots acquired for in-flight transfers, per target node;
        #: consumers return them via release_staged, and abort_outstanding
        #: reclaims whatever a failed query's wedged consumers still hold
        self._staged_outstanding: dict[str, int] = {}
        #: prefetchers parked until a staging credit frees, per target node
        self._credit_waiters: dict[str, list[Event]] = {}
        #: remote acquires so far per (block node, target node): the 1st
        #: and every REMOTE_BATCH_SIZE-th pay the remote round trip
        self._remote_acquires: dict[tuple[str, str], int] = {}

    # -- path selection ------------------------------------------------------------

    def _cheapest(self, paths: list, nbytes: float,
                  scale: float) -> tuple[Path, float]:
        """Contention scoring: the single loop behind both route
        selection and the router's locality projection, so the two can
        never drift apart.  Strict ``<`` keeps ties on the first
        (direct) enumeration entry."""
        best = paths[0]
        best_cost = self.cost.transfer_demand(nbytes, best, scale=scale)
        for path in paths[1:]:
            cost = self.cost.transfer_demand(nbytes, path, scale=scale)
            if cost < best_cost:
                best, best_cost = path, cost
        return best, best_cost

    def select_path(self, src_node: str, dst_node: str, nbytes: float,
                    scale: float = 1.0) -> Path:
        """Choose the interconnect route for one transfer, at launch time.

        A single candidate is returned without pricing anything;
        otherwise every candidate is priced against the live per-link
        queue depths and the cheapest returned, falling back to
        enumeration order on ties, which makes the choice deterministic.
        """
        paths = self.server.paths_between(src_node, dst_node)
        if len(paths) == 1:
            return paths[0]
        return self._cheapest(paths, nbytes, scale)[0]

    def projected_cost(self, handle: BlockHandle, target_node: str) -> float:
        """Estimated seconds to make ``handle`` local to ``target_node``.

        Zero for already-local blocks; otherwise the priced cost of the
        route :meth:`schedule` would pick right now.  Routers consult
        this for locality-first consumer selection (a block flows to the
        instance whose memory it can reach cheapest when queue loads
        tie).
        """
        if handle.node_id == target_node:
            return 0.0
        paths = self.server.paths_between(handle.node_id, target_node)
        return self._cheapest(
            paths, handle.block.nbytes, handle.block.logical_scale
        )[1]

    # -- producer half ------------------------------------------------------------

    def needs_move(self, handle: BlockHandle, target_node: str) -> bool:
        """Must ``handle`` be transferred before a consumer on
        ``target_node`` reads it?  The one locality rule.

        No when a transfer is already under way or the block is on
        ``target_node``; no between two CPU DRAM nodes, since a core
        reads the other socket directly (NUMA is charged to the block's
        home socket); yes otherwise.
        """
        if handle.transfer_done is not None or handle.node_id == target_node:
            return False
        nodes = self.server.memory_nodes
        return not (
            nodes[handle.node_id].kind is DeviceType.CPU
            and nodes[target_node].kind is DeviceType.CPU
        )

    def schedule(self, handle: BlockHandle, target_node: str) -> BlockHandle:
        """Ensure the handle's block will be local to ``target_node``.

        Local blocks are forwarded untouched; remote blocks get an
        asynchronous DMA scheduled (on the route :meth:`select_path`
        picks at this instant) and a relocated handle returned.  The
        caller must ``yield`` the returned handle's ``transfer_done`` (if
        set) before reading the block, and call :meth:`release_staged`
        once done with it.  One staging credit is held from here until
        that release.
        """
        if handle.node_id == target_node:
            self.forwards += 1
            return handle
        self.blocks.manager(target_node).acquire()
        self._staged_outstanding[target_node] = (
            self._staged_outstanding.get(target_node, 0) + 1
        )
        pair = (handle.node_id, target_node)
        acquired = self._remote_acquires.get(pair, 0)
        self._remote_acquires[pair] = acquired + 1
        acquire_latency = (
            0.0 if acquired % REMOTE_BATCH_SIZE else 2 * REMOTE_ACQUIRE_LATENCY
        )
        path = self.select_path(handle.node_id, target_node,
                                handle.block.nbytes,
                                scale=handle.block.logical_scale)
        self.path_counts[path.key] = self.path_counts.get(path.key, 0) + 1
        new_handle = handle.routed_copy(block=handle.block.with_node(target_node))
        new_handle.transfer_done = self.sim.process(
            self._dma(handle.block, path, acquire_latency),
            name=("memmove:{}", handle.block.block_id),
        )
        self.transfers += 1
        self.bytes_moved += handle.block.logical_bytes
        return new_handle

    # -- credit-based backpressure -------------------------------------------------

    def has_credit(self, node_id: str) -> bool:
        """May another staging block be put in flight for ``node_id``?"""
        return self._staged_outstanding.get(node_id, 0) < self.prefetch_depth

    def await_credit(self, node_id: str) -> Event:
        """Event triggered when a staging credit for ``node_id`` frees.

        Callers must re-check :meth:`has_credit` after waking (wake-ups
        are broadcast so an aborted pipeline cannot strand waiters).
        """
        event = self.sim.event(name=("memmove-credit:{}", node_id))
        self._credit_waiters.setdefault(node_id, []).append(event)
        return event

    def _wake_credit_waiters(self, node_id: str) -> None:
        waiters = self._credit_waiters.pop(node_id, None)
        if not waiters:
            return
        for event in waiters:
            if not event.triggered:
                event.trigger(None)

    def prefetch_proc(self, source: Store, fetched: Store, target_node: str):
        """DES process: the producer half running ahead of one consumer.

        Pulls handles from ``source``, launches the mem-move for those
        :meth:`needs_move` says are remote (waiting for a staging credit
        first, so at most ``prefetch_depth`` transfers are ever staged
        ahead of the consumer), and forwards the relocated handles into
        ``fetched`` for the consumer to drain.  A staged handle carries
        its ``transfer_done``, which tells the consumer's epilogue to
        call :meth:`release_staged`.
        """
        while True:
            got = source.get()
            yield got
            handle = got.value
            if handle is Store.END:
                fetched.close()
                return
            if self.needs_move(handle, target_node):
                while not self.has_credit(target_node):
                    yield self.await_credit(target_node)
                handle = self.schedule(handle, target_node)
            yield fetched.put(handle)

    def release_staged(self, node_id: str) -> None:
        """Consumer half's epilogue: return one staging slot to the arena.

        Tolerant of an abort race: if the query was aborted and the slot
        already reclaimed by :meth:`abort_outstanding`, this is a no-op
        (the arena must not be over-released).  Frees one prefetch
        credit either way, waking a parked prefetcher.
        """
        count = self._staged_outstanding.get(node_id, 0)
        if count > 0:
            self._staged_outstanding[node_id] = count - 1
            self.blocks.release(node_id)
        self._wake_credit_waiters(node_id)

    def abort_outstanding(self) -> None:
        """Reclaim every staging slot still held by in-flight transfers.

        Called when the owning query dies: its wedged consumers — parked
        mid-``transfer_done`` wait, or holding handles that were staged
        into a prefetch buffer and never consumed — will never run their
        release epilogue, and the staging arenas are shared with every
        other query on the server.  Credit waiters are flushed too, so a
        sibling prefetcher parked on :meth:`await_credit` cannot be
        stranded holding its queue slot.  Idempotent.

        Both loops iterate over snapshots: a release can wake a credit
        waiter whose prefetcher re-enters :meth:`schedule` and grows
        ``_staged_outstanding`` with a new target node, and mutating a
        dict mid-iteration raises.
        """
        for node_id, count in list(self._staged_outstanding.items()):
            if count > 0:
                self.blocks.release(node_id, count)
                self._staged_outstanding[node_id] = 0
        for node_id in list(self._credit_waiters):
            self._wake_credit_waiters(node_id)

    # -- the asynchronous DMA process ------------------------------------------------

    def _dma(self, block: Block, path: Path, acquire_latency: float):
        # The staging slot acquired for this transfer is released by the
        # consumer once it has processed the block (release_staged in the
        # worker's epilogue), not when the wire goes quiet.
        start = self.sim.now
        plan = self.cost.transfer_plan(block.nbytes, scale=block.logical_scale)
        # path_rate_cap is the single source of the stream cap (pinned /
        # pageable / peer-DMA): it subsumes plan.link_rate_cap
        rate_cap = self.cost.path_rate_cap(path)
        yield self.sim.timeout(plan.setup_seconds * path.setups + acquire_latency)
        jobs = path_transfer_jobs(
            path, plan.nbytes, rate_cap, label=("dma:{}", block.block_id)
        )
        if jobs:
            yield self.sim.all_of(jobs)
        if self.straggler is not None:
            factor = self.straggler()
            if factor > 1.0:
                yield self.sim.timeout((self.sim.now - start) * (factor - 1.0))
        elapsed = self.sim.now - start
        if self.dma_timeout is not None and elapsed > self.dma_timeout:
            raise TransferTimeout(
                f"transfer of block {block.block_id} to {path.dst} took "
                f"{elapsed:.6f}s (deadline {self.dma_timeout:g}s)"
            )

    # -- introspection -----------------------------------------------------------------

    def staged_outstanding(self, node_id: Optional[str] = None) -> int:
        """Staging slots currently held (per node, or in total)."""
        if node_id is not None:
            return self._staged_outstanding.get(node_id, 0)
        return sum(self._staged_outstanding.values())

    def stats(self) -> dict[str, float]:
        return {
            "transfers": self.transfers,
            "forwards": self.forwards,
            "bytes_moved": self.bytes_moved,
        }
