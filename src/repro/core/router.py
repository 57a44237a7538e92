"""The router: control-flow operator encapsulating parallelism (Section 3.1).

"Router operators encapsulate parallelism across multiple processors...
In contrast with the classical Exchange, router only operates on the
control plane.  A task refers to the target input data via a block handle."

One :class:`Router` instance serves all edges leaving one producer stage —
like the paper's router it can have *multiple parents* (one consumer
stage per device type) and instantiates each of them with its own degree
of parallelism.  Policies:

* ``load-balance`` — route to the consumer group expected to finish the
  block first, preferring an instance whose memory already holds it (the
  paper's microbenchmarks: "the routing policy schedules some blocks
  residing on the remote-to-GPU socket to the GPU");
* ``hash`` — route on the handle's hash value (set by hash-pack; the
  router never touches tuples);
* ``target`` — route on the handle's broadcast target id (set by the
  mem-move multicast);
* ``union`` — merge all producers into the single consumer group.

Consumer queues are bounded and load-balance routing is credit-throttled,
which yields the pull-style backpressure that lets heterogeneous
consumers drain work in proportion to their throughput.  At the Fig. 5
harness settings (SSB SF 0.01 replayed at SF 1000, 256-row blocks) the
hybrid reaches on average 0.836 of the summed CPU-only and GPU-only
throughputs (the paper reports 88.5 %).

A load-balance router over two or more groups (a hybrid CPU + GPU probe)
has one rule for the query's whole life: it sends each block to the group
that will finish it first, and prices every block before it commits it:

1. *Calibrate.*  The first block goes to the group with the fewest
   instances, and nothing else is routed until its worker has run the
   generated pipeline on it and reported the block's work statistics
   (:meth:`Router.calibrate`).
   Workers run the pipeline before they wait on the block's transfer, so
   this costs no simulated time.
2. *Price.*  Each group's ``block_price(handle, unit_stats)`` (wired by
   the executor to :meth:`CostModel.block_price` at those statistics)
   estimates one instance's seconds for the block.
3. *Commit.*  A group takes the block only if it would finish it,
   ``(outstanding // dop + 1) * seconds``, no later than the best other
   group would after taking every block still waiting at the router;
   otherwise the router waits for a completion.  When every group is
   idle the cheapest group always qualifies, so the wait never deadlocks.
   A group out of credit is waited for, never bypassed for a group that
   would finish the block later.

*Morsels.*  Once the calibration stats are in, a block bound for a
shared-queue (CPU) group that reads it in place is cut into
``k = min(dop, rows, ceil(own / fastest), cores_fed)`` morsels, where
``own`` is the group's price and ``fastest`` the smallest over all groups:
one morsel then takes one core about as long as the whole block takes
the fastest instance.  ``cores_fed = max(1, floor(B / r))`` counts the
cores the block's socket DRAM (``B``) feeds at one core's rate ``r`` for
the block, so a morsel is never priced below the block's work over ``B``
(8 cores on the SSB joins, 28 on Q1.x).  Without the cut, a coarse block
(65 536 rows replayed at SF 1000 take one core seconds, one GPU a fraction
of that) handed to the CPU sets the query's makespan while the other cores
idle (the fix of Leis et al., "Morsel-driven parallelism", SIGMOD 2014).  The
router prices in items of ``seconds / k`` each, and a shared-queue group
counts the items it has out per home memory node (``on_node``: counted at
enqueue, taken back by :meth:`report_done`).  The group finishes the block
at the later of ``((outstanding + k - 1) // dop + 1) * seconds / k``, its
cores, and ``((on_node + k - 1) // lanes + 1) * seconds / k`` with
``lanes = min(dop, cores_fed)``, the block's home socket: every morsel of
it streams from that socket's DRAM, whatever core runs it.  The group
drains ``((outstanding + waiting * k + k - 1) // dop + 1) * seconds / k``,
and never before it finishes the block.  A group takes a split block only
if ``outstanding + k`` fits its credit and its queue has room for all ``k``
items, so the router never blocks halfway through one.  The ``k`` handles
share one :class:`Morsels`: the first worker to dequeue one runs the
generated pipeline on the whole block and stores each morsel's share of
its work, every morsel charges that share, and the last one to finish
emits the block's outputs.  ``k = 1`` is the
whole block; per-instance (GPU) groups and single-group routers are never
split.  The price reads only this router's own counts: what other queries
run on a shared socket or device stays unpriced.

A broadcast over two or more groups with price hooks (a hybrid build) is
priced too, and cuts its shared-queue copy by the same rule, so every CPU
worker builds the one shared hash table.  It enqueues the per-instance
copies first; the first one a worker picks up calibrates the router, and
the CPU copy waits for that.  ``fastest`` is then a GPU's build, wire time
included, so the CPU's part of the build ends about when the GPUs' do.

Routers are fully re-entrant: every piece of routing state (credit
book-keeping, calibration, the pending wake-up) lives on the instance,
never on the class or the module, so any number of queries can run their
own routers on one shared simulator.  The router holds its groups and
never the reverse: a worker calls its input router's :meth:`report_done`
and :meth:`calibrate`, so a phase's routers, groups and queues die with
the phase, not at the next cyclic collection.  Each router carries the
``query_id`` of the query that owns it for multi-query debugging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..algebra.physical import RouterPolicy, Stage
from ..hardware.costmodel import BlockStats
from ..hardware.sim import Simulator, Store
from ..hardware.topology import DeviceType
from ..memory.block import BlockHandle

__all__ = ["Router", "ConsumerGroup", "Morsels", "RoutingError"]


class RoutingError(RuntimeError):
    """A handle could not be routed (bad policy/metadata combination)."""


class Morsels:
    """One block cut into ``k`` morsels for a shared-queue group.

    The router enqueues ``k`` routed copies of the block's handle that all
    carry this object.  The first worker to dequeue one runs the pipeline
    on the whole block and stores ``share`` (the block's statistics over
    ``k``) and ``outputs``; every morsel charges ``share``, and
    :meth:`finish` hands the outputs to the worker that finishes the last
    morsel, so they leave exactly once.
    """

    __slots__ = ("k", "left", "share", "outputs")

    def __init__(self, k: int):
        self.k = self.left = k
        self.share: Optional[BlockStats] = None
        self.outputs = None

    def finish(self):
        """One morsel done: the block's outputs if it was the last."""
        self.left -= 1
        return self.outputs if self.left == 0 else None


@dataclass
class ConsumerGroup:
    """One consumer stage as seen by the router.

    CPU groups share one queue, and their workers pull morsels from it: a
    coarse block is cut into up to ``dop`` of them (see :class:`Morsels`);
    GPU groups get one queue per device instance so mem-move can target the
    right device memory ahead of the kernel launch.  The executor builds
    each group with its hooks; none of them holds the router or the group,
    and the group holds no reference back to its router.
    """

    stage: Stage
    #: memory node of each instance ('cpu:<socket>' or 'gpu:<k>')
    instance_nodes: list[str]
    #: projected transfer cost of making a handle local to a node
    #: (``fn(handle, node_id) -> seconds``): the phase's mem-move estimate,
    #: so instance selection is locality-first, not just
    #: queue-depth-first.  None leaves an equal load to the lowest tied
    #: instance index.
    transfer_cost: Optional[object] = None
    #: one instance's price for a block at the router's per-tuple work
    #: (``fn(handle, unit_stats) -> BlockPrice``: seconds, and for a CPU
    #: group the cores its socket's DRAM feeds), from the cost model, so a
    #: priced router can price a block before it commits or cuts it
    block_price: Optional[object] = None
    #: whether the group's workers read a block where it lies, with no
    #: mem-move (``fn(handle) -> bool``).  Only such blocks are cut into
    #: morsels; None never cuts one
    reads_in_place: Optional[object] = None
    shared_queue: Optional[Store] = None
    instance_queues: list[Store] = field(default_factory=list)
    #: blocks handed to this group / blocks its workers finished
    assigned: int = 0
    completed: int = 0
    #: items in flight per home memory node (shared-queue groups only)
    on_node: dict[str, int] = field(default_factory=dict)
    #: per-instance in-flight counts (per-instance groups only)
    instance_assigned: list[int] = field(default_factory=list)
    instance_completed: list[int] = field(default_factory=list)

    @property
    def dop(self) -> int:
        return self.stage.dop

    @property
    def per_instance(self) -> bool:
        return bool(self.instance_queues)

    def queues(self) -> list[Store]:
        return self.instance_queues if self.per_instance else [self.shared_queue]

    def has_space(self, items: int = 1) -> bool:
        """Room for ``items`` more handles (a split block's morsels)."""
        if self.per_instance:
            return any(
                q.capacity is None or len(q) < q.capacity
                for q in self.instance_queues
            )
        q = self.shared_queue
        return q.capacity is None or len(q) + items <= q.capacity

    @property
    def outstanding(self) -> int:
        return self.assigned - self.completed

    def close(self) -> None:
        for queue in self.queues():
            queue.close()


class Router:
    """Routes block handles from one producer stage to its consumers."""

    #: per-instance queue bound (blocks); small, to create backpressure
    INSTANCE_QUEUE_CAPACITY = 3
    #: shared (per-group) queue bound per worker
    SHARED_QUEUE_PER_WORKER = 2

    def __init__(
        self,
        sim: Simulator,
        producer: Stage,
        groups: list[ConsumerGroup],
        policy: str,
        broadcast: bool = False,
        name: str = "",
        query_id: str = "",
    ):
        if policy not in RouterPolicy.ALL:
            raise RoutingError(f"unknown policy {policy!r}")
        if not groups:
            raise RoutingError("router needs at least one consumer group")
        self.sim = sim
        self.producer = producer
        self.groups = groups
        self.policy = policy
        self.broadcast = broadcast
        #: id of the owning query (multi-query runs tag every router)
        self.query_id = query_id
        self.name = name or f"router-{producer.name}"
        if query_id and not self.name.startswith(f"{query_id}:"):
            self.name = f"{query_id}:{self.name}"
        self.input: Store = sim.store(
            capacity=4 * sum(g.dop for g in groups), name=f"{self.name}:in"
        )
        self.routed_blocks = 0
        self._wakeup = None
        #: a load-balance router over several groups, or a broadcast over
        #: several groups with price hooks: it records ``unit_stats``, and
        #: prices every block (load-balance) or cuts its shared-queue copy
        #: (broadcast)
        self.priced = len(groups) > 1 and (
            all(g.block_price is not None for g in groups)
            if broadcast
            else policy == RouterPolicy.LOAD_BALANCE
        )
        #: the calibration block's per-tuple work, which the groups'
        #: ``block_price`` read; set once, by :meth:`calibrate`
        self.unit_stats = None
        self._wire_queues()
        # Flattened broadcast targets: the shared CPU domain counts as ONE
        # target (its workers cooperate on one hash table); each GPU
        # instance is its own target.
        self.targets: list[tuple[ConsumerGroup, Optional[int]]] = []
        for group in self.groups:
            if group.per_instance:
                for i in range(group.dop):
                    self.targets.append((group, i))
            else:
                self.targets.append((group, None))
        self._fanout = sorted(
            enumerate(self.targets), key=lambda t: not t[1][0].per_instance
        )

    def _wire_queues(self) -> None:
        for group in self.groups:
            per_instance = (
                group.stage.device is DeviceType.GPU
                or self.policy == RouterPolicy.HASH
            )
            if per_instance:
                group.instance_queues = [
                    self.sim.store(
                        capacity=self.INSTANCE_QUEUE_CAPACITY,
                        name=f"{self.name}:{group.stage.name}:{i}",
                    )
                    for i in range(group.dop)
                ]
                group.instance_assigned = [0] * group.dop
                group.instance_completed = [0] * group.dop
            else:
                group.shared_queue = self.sim.store(
                    capacity=self.SHARED_QUEUE_PER_WORKER * group.dop,
                    name=f"{self.name}:{group.stage.name}",
                )

    # -- the router process ---------------------------------------------------

    def run(self):
        """DES process: pull handles, route them, close queues at EOS."""
        while True:
            got = self.input.get()
            yield got
            handle = got.value
            if handle is Store.END:
                break
            if self.broadcast:
                # Per-instance (GPU) copies first: the first one picked up
                # calibrates a priced router, which then cuts the
                # shared-queue (CPU) copy into morsels.
                for target_id, (group, instance) in self._fanout:
                    copy = handle.routed_copy()
                    copy.target_id = target_id
                    cold = self.priced and not group.per_instance
                    while cold and self.unit_stats is None:
                        yield self._wait()
                    yield from self._put(copy, group, instance)
                    self.routed_blocks += 1
            else:
                choice = self._select(handle)
                while choice is None:
                    # No group may take the block yet (load-balance
                    # only): wait for a completion or calibration stats.
                    yield self._wait()
                    choice = self._select(handle)
                yield from self._put(handle, *choice)
                self.routed_blocks += 1
        for group in self.groups:
            group.close()

    def _wait(self):
        """An event the next completion or calibration triggers."""
        self._wakeup = self.sim.event(name=("{}:credit", self.name))
        return self._wakeup

    def _put(self, handle: BlockHandle, group: ConsumerGroup,
             instance: Optional[int]):
        """Enqueue ``handle`` for ``group``: whole, or as ``k`` routed
        copies that share one :class:`Morsels`."""
        k = self._morsels(group, handle)
        if k == 1:
            yield self._enqueue(handle, group, instance)
            return
        morsels = Morsels(k)
        for _ in range(k):
            copy = handle.routed_copy()
            copy.morsels = morsels
            yield self._enqueue(copy, group, None)

    def _enqueue(self, handle: BlockHandle, group: ConsumerGroup,
                 instance: Optional[int]):
        group.assigned += 1
        if group.per_instance:
            if instance is None:
                instance = self._least_loaded_instance(group, handle)
            group.instance_assigned[instance] += 1
            return group.instance_queues[instance].put(handle)
        node = handle.node_id
        group.on_node[node] = group.on_node.get(node, 0) + 1
        return group.shared_queue.put(handle)

    # -- credit throttling -----------------------------------------------------

    def _credit_limit(self, group: ConsumerGroup) -> int:
        # Per-instance (GPU) pipelines buffer queue + prefetch + kernel per
        # instance; shared (CPU) groups hold one block per worker plus a
        # short queue.  Anything deeper hoards work on a slow group.
        if group.per_instance:
            depth = self.INSTANCE_QUEUE_CAPACITY + 3
            return group.dop * depth
        return max(group.dop + 2, int(1.5 * group.dop))

    def _has_credit(self, group: ConsumerGroup, items: int = 1) -> bool:
        return (
            group.outstanding + items <= self._credit_limit(group)
            and group.has_space(items)
        )

    def report_done(self, group: ConsumerGroup, instance: int, node: str) -> None:
        """Worker call: one block routed to ``group`` fully processed by
        its worker ``instance``; ``node`` is the block's home node when
        the router enqueued it (before any mem-move)."""
        group.completed += 1
        if group.instance_completed:
            group.instance_completed[instance] += 1
        else:
            group.on_node[node] -= 1
        self._wake()

    def calibrate(self, stats: BlockStats) -> None:
        """Worker call, while a priced router lacks ``unit_stats``: the
        calibration block's work statistics."""
        self.unit_stats = stats.scaled(1.0 / max(1, stats.tuples_in))
        self._wake()

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.trigger(None)
        self._wakeup = None

    # -- policies ------------------------------------------------------------

    def _select(
        self, handle: BlockHandle
    ) -> Optional[tuple[ConsumerGroup, Optional[int]]]:
        if self.policy == RouterPolicy.UNION:
            return self.groups[0], None
        if self.policy == RouterPolicy.TARGET:
            if handle.target_id is None:
                raise RoutingError("target policy requires handle.target_id")
            group, instance = self.targets[handle.target_id % len(self.targets)]
            return group, instance
        if self.policy == RouterPolicy.HASH:
            if handle.hash_value is None:
                raise RoutingError(
                    "hash policy requires the hash-pack invariant "
                    "(handle.hash_value is missing)"
                )
            index = handle.hash_value % len(self.targets)
            return self.targets[index]
        # LOAD_BALANCE.  Credit throttling: never buffer more than ~1.5
        # blocks per worker on any group — deep queues on a slow group
        # are makespan poison (the whole point of pull-style load
        # balancing).  A group out of credit holds its blocks back: the
        # router waits for a completion instead of handing the block to a
        # group that would finish it later.
        if len(self.groups) == 1:
            group = self.groups[0]
            return (group, None) if self._has_credit(group) else None
        return self._price(handle)

    def _price(
        self, handle: BlockHandle
    ) -> Optional[tuple[ConsumerGroup, Optional[int]]]:
        """Load-balance routing over several groups: calibrate, price, commit."""
        unit = self.unit_stats
        if unit is None:
            if self.routed_blocks:
                return None  # the calibration block's stats are not in yet
            return min(self.groups, key=lambda g: g.dop), None
        waiting = len(self.input)
        node = handle.node_id
        ks, finish, drain = [], [], []
        for g in self.groups:
            price = g.block_price(handle, unit)
            s, k = price.seconds, self._morsels(g, handle)
            # Priced in items: a split block is k items of s / k seconds each.
            done = ((g.outstanding + k - 1) // g.dop + 1) * s / k
            if not g.per_instance:
                # The items on the block's home socket share its DRAM,
                # which feeds only ``cores_fed`` of the group's cores.
                lanes = min(g.dop, price.cores_fed)
                on_node = g.on_node.get(node, 0)
                done = max(done, ((on_node + k - 1) // lanes + 1) * s / k)
            rest = ((g.outstanding + waiting * k + k - 1) // g.dop + 1) * s / k
            ks.append(k)
            finish.append(done)
            # No group drains the waiting blocks before it finishes this one.
            drain.append(max(done, rest))
        best = None
        for i, group in enumerate(self.groups):
            rival = min(d for j, d in enumerate(drain) if j != i)
            if (
                finish[i] <= rival
                and (best is None or finish[i] < finish[best])
                and self._has_credit(group, ks[i])
            ):
                best = i
        return None if best is None else (self.groups[best], None)

    def _morsels(self, group: ConsumerGroup, handle: BlockHandle) -> int:
        """How many morsels ``group`` gets ``handle`` in (1 = the whole
        block): a priced router's shared-queue group that reads the block
        in place is cut until one morsel takes one of its workers about as
        long as the block takes the fastest group's instance, into no more
        morsels than the block's socket feeds cores.  Only a priced router
        ever holds ``unit_stats``."""
        unit = self.unit_stats
        if (
            unit is None
            or group.per_instance
            or group.reads_in_place is None
            or not group.reads_in_place(handle)
        ):
            return 1
        own = group.block_price(handle, unit)
        fastest = min(g.block_price(handle, unit).seconds for g in self.groups)
        if own.seconds <= fastest or fastest <= 0:
            return 1
        rows = handle.block.num_tuples
        cut = math.ceil(own.seconds / fastest)
        return max(1, min(group.dop, rows, cut, own.cores_fed))

    def _least_loaded_instance(self, group: ConsumerGroup, handle: BlockHandle) -> int:
        # Device-resident blocks are pinned to their device: re-routing
        # would turn a ~10 us kernel wait into a ~300 us PCIe transfer, and
        # the paper's GPU-resident runs show no cross-GPU traffic ("we
        # profiled DBMS G and noticed an absence of cross-GPU PCIe traffic";
        # Proteus co-partitions likewise).  Blocks resident elsewhere (the
        # CPU-side stream of Figure 5) go to the instance with the fewest
        # blocks in flight (queue lengths alone are blind to blocks already
        # buffered in the instance's prefetcher); equal loads break on the
        # PROJECTED TRANSFER COST of making the block local (the mem-move's
        # path-priced estimate), then on the instance index — so routing is
        # deterministic, and under balanced load a block flows to the
        # socket/GPU where it is cheapest to deliver instead of piling onto
        # the lowest index and paying avoidable cross-socket DMA.
        for i, node in enumerate(group.instance_nodes):
            if node == handle.node_id:
                return i
        in_flight = [
            a - c for a, c in zip(group.instance_assigned, group.instance_completed)
        ]
        least = min(in_flight)
        tied = [i for i, load in enumerate(in_flight) if load == least]
        if len(tied) == 1:
            return tied[0]
        # Only price the tie: path pricing walks the topology, so keep it
        # off the routing hot path whenever load alone decides.
        cost_of = group.transfer_cost
        if cost_of is None:
            return tied[0]
        return min(
            tied, key=lambda i: (cost_of(handle, group.instance_nodes[i]), i)
        )
