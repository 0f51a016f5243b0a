"""Deterministic corruption of serialized trace bytes.

Models the two storage failures the crash-safe container (serialize v5,
docs/INTERNALS.md §7) must detect: a write cut short mid-file
(:func:`truncate`) and at-rest bit rot (:func:`bitflip`).
"""

from __future__ import annotations


def truncate(data: bytes, fraction: float | None = None, rng=None) -> bytes:
    """Cut ``data`` short.  ``fraction`` in (0, 1) fixes the cut point;
    otherwise a seeded ``rng`` picks a random offset that always removes
    at least one byte."""
    if len(data) <= 1:
        return b""
    if fraction is not None:
        cut = max(0, min(len(data) - 1, int(len(data) * fraction)))
    else:
        cut = rng.randrange(len(data))
    return data[:cut]


def bitflip(data: bytes, rng, flips: int = 1) -> bytes:
    """Flip ``flips`` single bits at seeded positions."""
    out = bytearray(data)
    for _ in range(flips):
        pos = rng.randrange(len(out))
        out[pos] ^= 1 << rng.randrange(8)
    return bytes(out)
