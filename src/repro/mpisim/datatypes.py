"""MPI wildcard and null-process constants, mirrored from MPI.

MiniMPI programs pass raw byte counts to communication intrinsics, so
the runtime needs no datatype registry — only these values.
"""

from __future__ import annotations

ANY_SOURCE = -1
ANY_TAG = -1
PROC_NULL = -3
