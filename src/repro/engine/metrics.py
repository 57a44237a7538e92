"""Live observability: a Prometheus-style metrics surface for the engine.

A service is only operable if its behaviour is visible without attaching
a debugger; this module gives the serving stack that surface:

* :class:`MetricsRegistry` — named metric families (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`) with label support, a
  Prometheus-text exposition dump (:meth:`MetricsRegistry.render_text`)
  and a machine-readable JSON snapshot (:meth:`MetricsRegistry.snapshot`).
  Counters additionally support :meth:`Counter.sync` — folding an
  externally maintained monotone total (the pipeline cache's lifetime
  :class:`~repro.jit.cache.CacheStats`, the fault injector's fired-fault
  counts) into the family without double counting.

Metrics are read, not simulated.  A hot path calls its family directly
(``self._m_shed.inc(tenant=…, reason=…)``): one hop, no event
vocabulary, no queue.  Point-in-time gauges (resource utilization,
budget in-use) are sampled by their owner when the surface is read — a
scrape or a drive's report — and those samples only read the simulator.
Observing a drive therefore schedules no event and moves no simulated
time: a drive scraped every tick runs exactly as an unobserved one.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable, Sequence, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: histogram buckets for simulated-latency observations (seconds);
#: +Inf is implicit
DEFAULT_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_F = TypeVar("_F", bound="_MetricFamily")


def _label_key(family: "_MetricFamily", labels: dict[str, object]) -> tuple[str, ...]:
    if set(labels) != set(family.label_names):
        raise ValueError(
            f"metric {family.name} takes labels {family.label_names}, "
            f"got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in family.label_names)


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in zip(names, values))
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    """A sample value: integral as an integer, otherwise the shortest
    text that round-trips, infinities and NaN as Prometheus spells them."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return str(int(value)) if value == int(value) else repr(float(value))


class _MetricFamily:
    """Shared mechanics: naming, labels, children keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], Any] = {}

    def _child(
        self, labels: dict[str, object], default: Callable[[], Any]
    ) -> tuple[tuple[str, ...], Any]:
        key = _label_key(self, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = default()
        return key, child

    def _sorted_children(self) -> list[tuple[tuple[str, ...], Any]]:
        return sorted(self._children.items())

    def header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _ScalarFamily(_MetricFamily):
    """One float per label set: what a counter and a gauge both read
    back and render."""

    def value(self, **labels: object) -> float:
        return self._children.get(_label_key(self, labels), 0.0)

    def render(self) -> list[str]:
        lines = self.header()
        for key, value in self._sorted_children():
            labels = _render_labels(self.label_names, key)
            lines.append(f"{self.name}{labels} {_render_value(value)}")
        return lines

    def snapshot_values(self) -> dict:
        return {
            _render_labels(self.label_names, key) or "": value
            for key, value in self._sorted_children()
        }


class Counter(_ScalarFamily):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError("counters only increase; inc() needs value >= 0")
        key, _ = self._child(labels, float)
        self._children[key] += value

    def sync(self, total: float, **labels: object) -> None:
        """Fold an externally maintained monotone total into this family.

        Increments by the delta against the last synced total, so
        repeated syncs against a lifetime counter (cache stats, fault
        counts) never double count.  A total that went *backwards*
        (source reset) re-bases without decrementing — the exposed
        counter stays monotone, which is the Prometheus contract.
        """
        key, _ = self._child(labels, float)
        last = self._synced.setdefault(key, 0.0)
        if total > last:
            self._children[key] += total - last
        self._synced[key] = total

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        super().__init__(name, help, label_names)
        self._synced: dict[tuple[str, ...], float] = {}


class Gauge(_ScalarFamily):
    """A value that goes up and down (per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key, _ = self._child(labels, float)
        self._children[key] = float(value)


class _HistogramChild:
    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +Inf is the last slot
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class Histogram(_MetricFamily):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        ordered = tuple(sorted(float(b) for b in buckets))
        if not ordered or any(not math.isfinite(b) for b in ordered):
            raise ValueError("buckets must be a non-empty finite sequence")
        self.buckets = ordered

    def observe(self, value: float, **labels: object) -> None:
        _, child = self._child(labels, lambda: _HistogramChild(self.buckets))
        child.observe(float(value))

    def render(self) -> list[str]:
        lines = self.header()
        for key, child in self._sorted_children():
            cumulative = 0
            for bound, count in zip(child.buckets, child.counts):
                cumulative += count
                labels = _render_labels((*self.label_names, "le"), (*key, f"{bound:g}"))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += child.counts[-1]
            labels = _render_labels((*self.label_names, "le"), (*key, "+Inf"))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            plain = _render_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {_render_value(child.sum)}")
            lines.append(f"{self.name}_count{plain} {child.count}")
        return lines

    def snapshot_values(self) -> dict:
        out = {}
        for key, child in self._sorted_children():
            out[_render_labels(self.label_names, key) or ""] = {
                "buckets": {
                    f"{bound:g}": count
                    for bound, count in zip(child.buckets, child.counts)
                } | {"+Inf": child.counts[-1]},
                "sum": child.sum,
                "count": child.count,
            }
        return out


class MetricsRegistry:
    """Named metric families; the engine's single observability surface.

    Family constructors are idempotent: asking for an existing name
    returns the existing family (and raises if the kind or label set
    differs — two call sites silently feeding incompatible series is
    exactly the bug a registry exists to prevent).
    """

    def __init__(self) -> None:
        self._families: dict[str, _MetricFamily] = {}

    def _register(
        self,
        cls: type[_F],
        name: str,
        help: str,
        label_names: Sequence[str],
        **kwargs: Any,
    ) -> _F:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.label_names != tuple(
                label_names
            ):
                raise ValueError(
                    f"metric {name} already registered as "
                    f"{existing.kind}{existing.label_names}"
                )
            return existing
        family = cls(name, help, label_names, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def families(self) -> Iterable[_MetricFamily]:
        return (self._families[name] for name in sorted(self._families))

    def render_text(self) -> str:
        """Prometheus text exposition of every family."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """Machine-readable snapshot: ``{name: {type, help, values}}``.

        Histogram values carry per-bucket (non-cumulative) counts plus
        ``sum``/``count``; counter and gauge values are flat numbers
        keyed by their rendered label string.
        """
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "values": family.snapshot_values(),
            }
            for family in self.families()
        }
