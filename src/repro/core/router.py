"""The router: control-flow operator encapsulating parallelism (Section 3.1).

"Router operators encapsulate parallelism across multiple processors...
In contrast with the classical Exchange, router only operates on the
control plane.  A task refers to the target input data via a block handle."

One :class:`Router` instance serves all edges leaving one producer stage —
like the paper's router it can have *multiple parents* (one consumer
stage per device type) and instantiates each of them with its own degree
of parallelism.  Policies:

* ``load-balance`` — route to the least-loaded consumer group, preferring
  a consumer whose memory already holds the block (this is the policy the
  paper's microbenchmarks discuss: "the routing policy schedules some
  blocks residing on the remote-to-GPU socket to the GPU");
* ``round-robin`` — cycle through all consumer instances;
* ``hash`` — route on the handle's hash value (set by hash-pack; the
  router never touches tuples);
* ``target`` — route on the handle's broadcast target id (set by the
  mem-move multicast);
* ``union`` — merge all producers into the single consumer group.

Consumer queues are bounded, which yields the pull-style backpressure
that lets heterogeneous consumers drain work proportionally to their
throughput (the paper's hybrid configurations reach ~88.5 % of the summed
CPU+GPU throughputs).

Routers are fully re-entrant: every piece of routing state (round-robin
and tie-break cursors, credit book-keeping, wake-up hooks) lives on the
instance, never on the class or the module, so any number of queries can
run their own routers on one shared simulator.  Each router carries the
``query_id`` of the query that owns it for multi-query debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..algebra.physical import RouterPolicy, Stage
from ..hardware.sim import Simulator, Store
from ..hardware.topology import DeviceType
from ..memory.block import BlockHandle

__all__ = ["Router", "ConsumerGroup", "RoutingError"]


class RoutingError(RuntimeError):
    """A handle could not be routed (bad policy/metadata combination)."""


@dataclass
class ConsumerGroup:
    """One consumer stage as seen by the router.

    CPU groups share one queue (workers pull morsel-style); GPU groups get
    one queue per device instance so mem-move can target the right device
    memory ahead of the kernel launch.
    """

    stage: Stage
    #: memory node of each instance ('cpu:<socket>' or 'gpu:<k>')
    instance_nodes: list[str]
    #: projected transfer cost of making a handle local to a node
    #: (``fn(handle, node_id) -> seconds``); wired by the executor to
    #: the mem-move's path-priced estimate so instance selection is
    #: locality-first, not just queue-depth-first.  None falls back to
    #: a same-node/remote two-level heuristic.
    transfer_cost: Optional[object] = None
    shared_queue: Optional[Store] = None
    instance_queues: list[Store] = field(default_factory=list)
    #: blocks handed to this group / blocks its workers finished; the
    #: load-balancing policy routes on observed completion rates
    assigned: int = 0
    completed: int = 0
    first_assign_at: Optional[float] = None
    #: router wake-up hook, set by the owning router
    on_done: Optional[object] = None
    #: per-instance in-flight counts (per-instance groups only)
    instance_assigned: list[int] = field(default_factory=list)
    instance_completed: list[int] = field(default_factory=list)

    @property
    def dop(self) -> int:
        return self.stage.dop

    @property
    def per_instance(self) -> bool:
        return bool(self.instance_queues)

    def queued(self) -> int:
        if self.per_instance:
            return sum(len(q) for q in self.instance_queues)
        return len(self.shared_queue)

    def load(self) -> float:
        return self.queued() / max(1, self.dop)

    def queues(self) -> list[Store]:
        return self.instance_queues if self.per_instance else [self.shared_queue]

    def has_space(self) -> bool:
        if self.per_instance:
            return any(
                q.capacity is None or len(q) < q.capacity
                for q in self.instance_queues
            )
        q = self.shared_queue
        return q.capacity is None or len(q) < q.capacity

    def report_done(self, instance: Optional[int] = None) -> None:
        """Worker callback: one routed block fully processed."""
        self.completed += 1
        if instance is not None and self.instance_completed:
            self.instance_completed[instance] += 1
        if self.on_done is not None:
            self.on_done()

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
        # Plain per-instance cursors (NOT itertools.cycle objects, NOT
        # class attributes): routing position must be private to this
        # router and inspectable, or concurrent queries would perturb each
        # other's round-robin distribution.
        self._rr_index = 0
        self._tie_index = 0
        self.routed_blocks = 0
        self._wakeup = None
        self._wire_queues()
        for group in self.groups:
            group.on_done = self._on_group_done
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

    def _wire_queues(self) -> None:
        for group in self.groups:
            per_instance = (
                group.stage.device is DeviceType.GPU
                or self.policy in (RouterPolicy.HASH, RouterPolicy.ROUND_ROBIN)
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
                for target_id, (group, instance) in enumerate(self.targets):
                    copy = handle.routed_copy()
                    copy.target_id = target_id
                    yield self._enqueue(copy, group, instance)
                    self.routed_blocks += 1
            else:
                if self.policy == RouterPolicy.LOAD_BALANCE:
                    # Credit throttling: never buffer more than ~1.5 blocks
                    # per worker on any group — deep queues on a slow group
                    # are makespan poison (the whole point of pull-style
                    # load balancing).  Wait for a completion when all
                    # groups are saturated.
                    while not any(self._has_credit(g) for g in self.groups):
                        wakeup = self.sim.event(name=("{}:credit", self.name))
                        self._arm_wakeup(wakeup)
                        yield wakeup
                group, instance = self._select(handle)
                yield self._enqueue(handle, group, instance)
                self.routed_blocks += 1
        for group in self.groups:
            group.close()

    def _enqueue(self, handle: BlockHandle, group: ConsumerGroup,
                 instance: Optional[int]):
        group.assigned += 1
        if group.first_assign_at is None:
            group.first_assign_at = self.sim.now
        if group.per_instance:
            if instance is None:
                instance = self._least_loaded_instance(group, handle)
            group.instance_assigned[instance] += 1
            return group.instance_queues[instance].put(handle)
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

    def _has_credit(self, group: ConsumerGroup) -> bool:
        return group.outstanding < self._credit_limit(group) and group.has_space()

    def _arm_wakeup(self, event) -> None:
        self._wakeup = event

    def _on_group_done(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.trigger(None)
        self._wakeup = None

    # -- policies ------------------------------------------------------------

    def _select(self, handle: BlockHandle) -> tuple[ConsumerGroup, Optional[int]]:
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
        if self.policy == RouterPolicy.ROUND_ROBIN:
            index = self._rr_index % len(self.targets)
            self._rr_index += 1
            return self.targets[index]
        # LOAD_BALANCE: route to the group with the smallest expected
        # wait, estimated from observed completion rates.  Until a group
        # has completed ~2 blocks per worker, assume unit service time
        # (routes roughly by degree of parallelism); afterwards the
        # measured rate dominates, so a 24-core CPU group and a 2-GPU
        # group drain work proportionally to their actual throughputs —
        # the paper's hybrid reaches ~88.5 % of the summed throughputs.
        candidates = [g for g in self.groups if self._has_credit(g)] or \
            [g for g in self.groups if g.has_space()] or self.groups

        def expected_wait(group: ConsumerGroup) -> float:
            outstanding = group.assigned - group.completed
            warm = group.completed >= 2 * group.dop
            if warm and group.first_assign_at is not None:
                elapsed = max(self.sim.now - group.first_assign_at, 1e-9)
                rate = group.completed / elapsed
            else:
                rate = float(group.dop)
            return (outstanding + 1) / max(rate, 1e-12)

        waits = [expected_wait(g) for g in candidates]
        best = min(waits)
        tied = [g for g, w in zip(candidates, waits) if w <= best * (1 + 1e-9)]
        if len(tied) == 1:
            return tied[0], None
        choice = tied[self._tie_index % len(tied)]
        self._tie_index += 1
        return choice, None

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
