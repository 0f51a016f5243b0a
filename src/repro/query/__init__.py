"""Decompression-free queries over merged CTTs (paper §VII-D).

The engine answers traffic, ordering, per-rank-profile and hotspot
questions straight from the compressed structure.  :mod:`.oracle` holds
the replay-based twins the engine is tested against, and
:func:`agreement_errors`.  They are test code: they stay here only
because the benchmarks (``benchmarks/e2e/pipeline.py``,
``benchmarks/bench_query.py``) import them from this package, and they
move to ``tests/spec_query.py`` with the next change to the end-to-end
benchmark.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass

from .engine import (
    SEND_OPS,
    CriticalLeaf,
    OpProfile,
    OrderingResult,
    RankProfile,
    Traffic,
    critical_leaves,
    leaf_time,
    ordering,
    rank_count,
    rank_profile,
    traffic,
)
from .oracle import (
    agreement_errors,
    critical_leaves_via_replay,
    ordering_via_replay,
    rank_profile_via_replay,
    traffic_via_replay,
)
from .paths import QueryError, TreeIndex, vertex_path

__all__ = [
    "SEND_OPS",
    "CriticalLeaf",
    "OpProfile",
    "OrderingResult",
    "QueryError",
    "RankProfile",
    "Traffic",
    "TreeIndex",
    "agreement_errors",
    "critical_leaves",
    "critical_leaves_via_replay",
    "leaf_time",
    "ordering",
    "ordering_via_replay",
    "rank_count",
    "rank_profile",
    "rank_profile_via_replay",
    "to_jsonable",
    "traffic",
    "traffic_via_replay",
    "vertex_path",
]


def to_jsonable(result):
    """Render any query result as plain JSON-serializable data.

    Tuple dict keys (the ``rank_pair`` traffic grouping) become
    ``"src->dst"`` strings; dataclasses become dicts."""
    if is_dataclass(result) and not isinstance(result, type):
        return {k: to_jsonable(v) for k, v in asdict(result).items()}
    if isinstance(result, dict):
        out = {}
        for key, value in result.items():
            if isinstance(key, tuple):
                key = "->".join(str(k) for k in key)
            out[str(key)] = to_jsonable(value)
        return out
    if isinstance(result, (list, tuple)):
        return [to_jsonable(v) for v in result]
    return result
