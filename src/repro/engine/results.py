"""Query results: values plus the simulated execution profile."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..hardware.costmodel import BlockStats

__all__ = ["QueryResult", "ExecutionProfile"]


@dataclass
class ExecutionProfile:
    """Timing and accounting for one query execution."""

    #: simulated wall-clock of the whole query (seconds)
    seconds: float = 0.0
    #: simulated seconds spent parked at preemption checkpoints (the
    #: query's wall-clock minus this is its active service time)
    suspended_seconds: float = 0.0
    #: simulated seconds per phase, in execution order
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: aggregated pipeline stats per device type ('cpu'/'gpu')
    device_stats: dict[str, BlockStats] = field(default_factory=dict)
    #: logical bytes DMA-ed by mem-move operators
    bytes_transferred: float = 0.0
    #: number of mem-move transfers vs zero-copy forwards
    transfers: int = 0
    forwards: int = 0
    #: kernels launched through cpu2gpu operators
    kernels_launched: int = 0
    #: blocks routed by all routers
    blocks_routed: int = 0


@dataclass
class QueryResult:
    """Rows (or the scalar aggregate) plus the execution profile."""

    columns: list[str]
    rows: list[tuple]
    profile: ExecutionProfile
    #: non-None for ungrouped reductions: alias -> value
    scalar: Optional[dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.profile.seconds

    def value(self, alias: Optional[str] = None) -> Any:
        """The scalar aggregate (single-aggregate convenience accessor)."""
        if self.scalar is None:
            raise ValueError("query did not produce a scalar result")
        if alias is None:
            if len(self.scalar) != 1:
                raise ValueError(
                    f"query produced {len(self.scalar)} aggregates; name one of "
                    f"{sorted(self.scalar)}"
                )
            return next(iter(self.scalar.values()))
        return self.scalar[alias]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "scalar" if self.scalar is not None else f"{len(self.rows)} rows"
        return f"<QueryResult {shape} in {self.profile.seconds:.4f}s simulated>"
