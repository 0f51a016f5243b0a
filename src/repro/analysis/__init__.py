"""Trace analytics: renderers over :mod:`repro.query` answers
(summary, communication patterns, hotspots), the replay-based trace
diff and the measurement harness.
"""

from .patterns import ascii_heatmap, communication_matrix, message_sizes, neighbor_sets
from .diff import RankDiff, TraceDiff, diff_traces
from .hotspots import Hotspot, hotspots
from .report import TraceReport, summarize
from .stats import MethodResult, RunMeasurement, measure_all_methods, APP_MEMORY_BASELINE

__all__ = [
    "ascii_heatmap",
    "communication_matrix",
    "message_sizes",
    "neighbor_sets",
    "MethodResult",
    "RunMeasurement",
    "measure_all_methods",
    "APP_MEMORY_BASELINE",
    "TraceReport",
    "summarize",
    "RankDiff",
    "TraceDiff",
    "diff_traces",
    "Hotspot",
    "hotspots",
]
