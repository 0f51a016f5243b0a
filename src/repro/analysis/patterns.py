"""Communication-pattern extraction from compressed traces (paper §VII-D:
"The basic function with the compressed traces of CYPRESS is to analyze
program communication patterns", Figs. 17 and 20).

The volume matrix and the message sizes are :func:`repro.query.traffic`
answers — read from the merged CTT's leaf groups, no decompression pass
needed: each send-type record contributes ``count × nbytes`` from every
rank in its group to the decoded destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.inter import MergedCTT
from repro.query.engine import traffic

if TYPE_CHECKING:
    import numpy as np


def communication_matrix(merged: MergedCTT, nprocs: int) -> np.ndarray:
    """``M[src, dst]`` = total point-to-point bytes sent src→dst: the
    ``rank_pair`` traffic made dense.  A message whose source or
    destination lies outside ``[0, nprocs)`` is dropped with the engine's
    ``RuntimeWarning``."""
    import numpy as np

    matrix = np.zeros((nprocs, nprocs), dtype=np.int64)
    for cell, sent in traffic(merged, "rank_pair", nprocs).items():
        matrix[cell] = sent.nbytes
    return matrix


def message_sizes(merged: MergedCTT) -> dict[int, int]:
    """Distinct point-to-point message sizes -> total message count
    (the paper observes exactly two sizes for LESlie3d)."""
    return {
        size: sent.messages for size, sent in traffic(merged, "size").items()
    }


def neighbor_sets(matrix: np.ndarray) -> dict[int, list[int]]:
    """Per-rank list of communication partners (non-zero volume)."""
    import numpy as np

    out: dict[int, list[int]] = {}
    for rank in range(matrix.shape[0]):
        peers = sorted(
            set(np.nonzero(matrix[rank])[0]) | set(np.nonzero(matrix[:, rank])[0])
        )
        out[rank] = [int(p) for p in peers]
    return out


def ascii_heatmap(matrix: np.ndarray, width: int = 64) -> str:
    """Terminal rendering of a communication matrix (Figs. 17/20 stand-in).

    Rows are receivers, columns senders, like the paper's plots; darkness
    scales with volume.
    """
    n = matrix.shape[0]
    step = max(1, n // width)
    shades = " .:-=+*#%@"
    # Downsample by summing blocks.
    m = matrix[: (n // step) * step, : (n // step) * step]
    blocks = m.reshape(n // step, step, n // step, step).sum(axis=(1, 3))
    peak = blocks.max() or 1
    lines = []
    for row in blocks.T:  # transpose: paper plots receiver on Y
        chars = []
        for v in row:
            level = int((len(shades) - 1) * (v / peak) ** 0.5)
            chars.append(shades[level])
        lines.append("".join(chars))
    return "\n".join(lines)
