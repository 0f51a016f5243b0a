"""CYPRESS core: the paper's contribution — CTT-based trace compression."""

from .api import CypressRun, run_cypress
from .ctt import CTT, CTTVertex
from .decompress import (
    ReplayEvent,
    decompress_all,
    decompress_merged_rank,
    decompress_rank,
    DecompressionError,
)
from .errors import (
    CypressError,
    MergeError,
    StreamMismatchError,
    TraceFormatError,
)
from .inter import MergedCTT, merge_all
from .intra import (
    CompressionError,
    CypressConfig,
    IntraProcessCompressor,
    compress_streams,
)
from .quarantine import QuarantinedRank, QuarantineReport
from .records import CompressedRecord
from .sequences import IntSequence, SequenceCursor
from .timing import TimeStats, MEANSTD, HIST
from . import export, serialize

__all__ = [
    "CypressRun",
    "run_cypress",
    "CTT",
    "CTTVertex",
    "ReplayEvent",
    "decompress_all",
    "decompress_merged_rank",
    "decompress_rank",
    "DecompressionError",
    "MergedCTT",
    "merge_all",
    "CypressError",
    "MergeError",
    "StreamMismatchError",
    "TraceFormatError",
    "CompressionError",
    "CypressConfig",
    "IntraProcessCompressor",
    "compress_streams",
    "QuarantinedRank",
    "QuarantineReport",
    "CompressedRecord",
    "IntSequence",
    "SequenceCursor",
    "TimeStats",
    "MEANSTD",
    "HIST",
    "serialize",
    "export",
]
