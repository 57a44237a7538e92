"""HetExchange operators — the paper's primary contribution.

Control flow: :class:`Router` (parallelism), :func:`cpu2gpu` /
:class:`Gpu2Cpu` (device crossing).
Data flow: :class:`MemMove` (locality), :class:`Packer` /
:class:`HashPacker` (packing), :class:`Segmenter` (leaf block source).
"""

from .device_crossing import Gpu2Cpu, cpu2gpu
from .mem_move import MemMove
from .pack import HashPacker, Packer
from .router import ConsumerGroup, Router, RoutingError
from .segmenter import Segmenter

__all__ = [
    "Router",
    "ConsumerGroup",
    "RoutingError",
    "cpu2gpu",
    "Gpu2Cpu",
    "MemMove",
    "Packer",
    "HashPacker",
    "Segmenter",
]
