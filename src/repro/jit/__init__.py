"""JIT infrastructure: providers, codegen, pipelines, the pipeline cache,
and hash-table kernels."""

from .cache import (
    CacheStats,
    PipelineCache,
    SharedCacheDirectory,
    stage_signature,
)
from .codegen import CodegenError, PipelineCompiler
from .hashtable import DuplicateKeyError, HashTable, hash_int64
from .pipeline import CompiledPipeline, PipelineState, QueryState, agg_identity, merge_agg
from .provider import CPUProvider, DeviceProvider, GPUProvider, provider_for

__all__ = [
    "PipelineCompiler",
    "CodegenError",
    "PipelineCache",
    "SharedCacheDirectory",
    "CacheStats",
    "stage_signature",
    "HashTable",
    "DuplicateKeyError",
    "hash_int64",
    "CompiledPipeline",
    "PipelineState",
    "QueryState",
    "agg_identity",
    "merge_agg",
    "DeviceProvider",
    "CPUProvider",
    "GPUProvider",
    "provider_for",
]
