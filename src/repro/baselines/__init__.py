"""Comparison methods: Gzip raw traces, ScalaTrace, ScalaTrace-2."""

from .rawtrace import RawTraceSink
from .scalatrace import (
    ScalaTraceCompressor,
    merge_all_queues,
    expand_rank,
    event_signature,
)
from .scalatrace2 import (
    ScalaTrace2Compressor,
    merge_all_st2,
    expand_intra,
    expand_rank_st2,
)

__all__ = [
    "RawTraceSink",
    "ScalaTraceCompressor",
    "merge_all_queues",
    "expand_rank",
    "event_signature",
    "ScalaTrace2Compressor",
    "merge_all_st2",
    "expand_intra",
    "expand_rank_st2",
]
