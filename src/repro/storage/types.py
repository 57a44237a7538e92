"""Column data types for the storage layer.

The engine is columnar (like Proteus and both commercial baselines).  Types
map to NumPy dtypes; fixed-width strings are dictionary-encoded at load
time (a standard columnar technique, also how the paper's engines handle
SSB's string predicates), with the dictionary kept on the column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["DataType", "ColumnType", "INT32", "INT64", "FLOAT64", "STRING", "DATE32"]


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    #: dictionary-encoded string; physical representation is int32 codes
    STRING = "string"
    #: date stored as yyyymmdd int32 (the SSB convention)
    DATE32 = "date32"

    @property
    def numpy_dtype(self) -> np.dtype:
        if self is DataType.INT32 or self is DataType.STRING or self is DataType.DATE32:
            return np.dtype(np.int32)
        if self is DataType.INT64:
            return np.dtype(np.int64)
        return np.dtype(np.float64)

    @property
    def width_bytes(self) -> int:
        return int(self.numpy_dtype.itemsize)

    @property
    def is_string(self) -> bool:
        return self is DataType.STRING


INT32 = DataType.INT32
INT64 = DataType.INT64
FLOAT64 = DataType.FLOAT64
STRING = DataType.STRING
DATE32 = DataType.DATE32


@dataclass(frozen=True)
class ColumnType:
    """A named, typed column in a schema."""

    name: str
    dtype: DataType

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}:{self.dtype.value}"
