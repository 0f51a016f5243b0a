"""Workload registry infrastructure.

Each workload is a MiniMPI program (one source for all process counts)
plus a ``defines`` function computing its compile-time constants for a
given process count and scale factor.  ``scale=1.0`` is the repo default
(iteration counts reduced from NPB CLASS D so the full evaluation grid
runs in minutes — documented in DESIGN.md); benchmarks can raise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    defines: Callable[[int, float], dict[str, int]]  # (nprocs, scale) -> defines
    valid_procs: tuple[int, ...]
    description: str
    paper_procs: tuple[int, ...] = ()  # the process counts Fig. 15 uses

    def check_procs(self, nprocs: int) -> None:
        if nprocs not in self.valid_procs:
            raise ValueError(
                f"{self.name} does not run on {nprocs} processes "
                f"(valid: {describe_procs(self.valid_procs)})"
            )


def describe_procs(procs: tuple[int, ...]) -> str:
    """A short form of a valid rank-count set: the list itself when
    short, else its first three members and its last."""
    shown = procs if len(procs) <= 6 else (*procs[:3], "...", procs[-1])
    return ", ".join(map(str, shown))


def is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def grid_3d(nprocs: int) -> tuple[int, int, int]:
    """Factor a power-of-two process count into a near-cubic 3D grid
    (px >= py >= pz), the decomposition NPB MG and LESlie3d use."""
    if not is_pow2(nprocs):
        raise ValueError(f"3D grid needs a power of two, got {nprocs}")
    k = nprocs.bit_length() - 1
    kx = (k + 2) // 3
    ky = (k + 1) // 3
    kz = k // 3
    return (1 << kx, 1 << ky, 1 << kz)


def grid_2d(nprocs: int) -> tuple[int, int]:
    """Near-square 2D grid for a power-of-two process count (LU)."""
    if not is_pow2(nprocs):
        raise ValueError(f"2D grid needs a power of two, got {nprocs}")
    k = nprocs.bit_length() - 1
    kx = (k + 1) // 2
    return (1 << kx, 1 << (k - kx))


def scaled(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(base * scale)))
