"""Relative rank encoding (paper §IV-B, adopting ScalaTrace's method).

To let records from different ranks merge, peer ranks are stored relative
to the owner: ``dest = myrank + 1`` encodes as ``+1`` on every rank of a
stencil, so all ranks produce the identical record.  Special values
(``ANY_SOURCE`` etc., and the "no peer" sentinel) pass through unchanged.

Encoded peers are tuples so they can never be confused with absolute
ranks: ``("rel", delta)`` or ``("abs", rank)``.  A merged tree may hold a
third kind, ``("tor", t, s, m)``: a shift by ``t`` along one periodic
grid dimension of stride ``s`` and extent ``m``, so that a boundary
rank's wrapped neighbour (``rel +7`` on an 8-wide ring) and an interior
rank's (``rel -1``) are one value.  Only the merge's final pass
(:meth:`repro.core.inter.MergedCTT.finish`) writes it; a per-rank CTT never
holds one.
"""

from __future__ import annotations

from repro.mpisim.datatypes import ANY_SOURCE
from repro.mpisim.events import NO_PEER

REL = "rel"
ABS = "abs"
TOR = "tor"

EncodedPeer = tuple[str, int]

# Interned encodings for the values that occur on virtually every event
# (sentinels like NO_PEER, and the small deltas of stencil codes).  The
# tracer calls encode_peer twice per event; returning a cached tuple
# instead of allocating one keeps the per-event key cost flat.
_INTERN_LO, _INTERN_HI = -136, 136
_ABS_CACHE = {p: (ABS, p) for p in range(_INTERN_LO, _INTERN_HI + 1)}
_REL_CACHE = {d: (REL, d) for d in range(_INTERN_LO, _INTERN_HI + 1)}


def encode_peer(peer: int, rank: int, relative: bool = True) -> EncodedPeer:
    """Encode ``peer`` as seen from ``rank``.

    ``relative=False`` is the ablation switch: always store absolute ranks
    (records from different ranks then rarely merge).
    """
    if peer in (NO_PEER, ANY_SOURCE) or peer < 0:
        cached = _ABS_CACHE.get(peer)
        return cached if cached is not None else (ABS, peer)
    if relative:
        cached = _REL_CACHE.get(peer - rank)
        return cached if cached is not None else (REL, peer - rank)
    cached = _ABS_CACHE.get(peer)
    return cached if cached is not None else (ABS, peer)


def decode_peer(
    encoded: EncodedPeer, rank: int, nranks: int | None = None
) -> int:
    """Decode ``encoded`` as seen from ``rank``.

    With ``nranks`` given, a relative (or torus) decode landing outside
    ``[0, nranks)`` raises :class:`ValueError` — a REL result can never
    legally be a sentinel (sentinels are stored absolute), so e.g.
    rank 0 + delta −1 → −1 is an overflow, not ``ANY_SOURCE``.
    """
    mode = encoded[0]
    if mode == ABS:
        return encoded[1]
    if mode == REL or mode == TOR:
        peer = (
            rank + encoded[1] if mode == REL
            else torus_peer(rank, *encoded[1:])
        )
        if nranks is not None and not 0 <= peer < nranks:
            raise ValueError(
                f"relative peer {encoded!r} decodes to {peer} on rank "
                f"{rank}, outside [0, {nranks})"
            )
        return peer
    raise ValueError(f"bad encoded peer {encoded!r}")


def torus_peer(rank: int, t: int, s: int, m: int) -> int:
    """Rank ``rank``'s ``(TOR, t, s, m)`` peer: its coordinate ``c =
    (rank // s) mod m`` moved ``t`` around the ring, ``rank + ((c + t)
    mod m - c)·s``.  The peer stays in ``rank``'s own block of ``s·m``
    ranks, so it is a rank of the job whenever ``s·m`` divides the job
    size."""
    c = rank // s % m
    return rank + ((c + t) % m - c) * s


def try_decode_peer(
    encoded: EncodedPeer, rank: int, nranks: int | None = None
) -> tuple[int, bool]:
    """Decode without raising: returns ``(peer, in_range)``.

    ``in_range`` is ``False`` when a REL or TOR decode lands outside
    ``[0, nranks)`` (a negative REL decode is illegal even without
    ``nranks``), or an ABS value is neither a valid rank nor a legal
    sentinel (``NO_PEER``/``ANY_SOURCE``).
    """
    mode = encoded[0]
    if mode == REL:
        peer = rank + encoded[1]
        if peer < 0:
            return peer, False
        return peer, nranks is None or peer < nranks
    if mode == ABS:
        value = encoded[1]
        if value in (NO_PEER, ANY_SOURCE):
            return value, True
        if value < 0:
            return value, False
        return value, nranks is None or value < nranks
    if mode == TOR:
        peer = torus_peer(rank, *encoded[1:])
        return peer, nranks is None or peer < nranks
    raise ValueError(f"bad encoded peer {encoded!r}")
