"""CYPRESS error taxonomy.

Every failure the pipeline can diagnose raises a subclass of
:class:`CypressError`, so callers distinguish "the input is wrong" from
"the pipeline is broken" without catching bare ``Exception`` — and can
catch the whole family with one clause when they only care that a stage
failed.

The taxonomy (docs/INTERNALS.md §7):

``CypressError``
    Base class of every pipeline-diagnosed failure.

``StreamMismatchError``
    The dynamic marker/event stream did not match the static CST
    (unknown GID/op, unbalanced structure markers, bad opcode) —
    indicates a static/dynamic inconsistency: a bug, a corrupted
    capture, or an un-instrumented program.  In lenient mode the
    offending *rank* is quarantined instead of the error propagating
    (see :func:`repro.core.intra.compress_streams`).  Live tracing
    buffers callbacks and ingests them in batches, so the error surfaces
    no later than the next drain, ``flush()`` or read of that rank —
    not at the offending callback; ``item_index`` (the item's position
    in the rank's stream) says which one it was.

``MergeError``
    Two trees disagree structurally during the inter-process merge
    (cannot happen for CTTs built from the same CST — indicates a bug
    or mixed programs).

``TraceFormatError``
    The serialized trace bytes are corrupt, truncated, or of an
    unsupported version.  Inherits :class:`ValueError` for one release:
    existing callers that catch ``ValueError`` around
    :func:`repro.core.serialize.loads` keep working, but new code
    should catch :class:`TraceFormatError` (the ``ValueError`` base
    will be dropped).

``DecompressionError``
    The compressed trace is internally inconsistent: replay reached a
    state the payload cannot satisfy (a leaf visit that no record, or
    more than one, claims; an occurrence total no schedule can hold; an
    out-of-range decoded peer).  Carries the full replay context —
    ``rank``, ``gid``, ``op``, ``visit``, the leaf's record keys and
    each record's next occurrence — so salvage reports name the exact
    divergence instead of just a vertex.
"""

from __future__ import annotations


class CypressError(Exception):
    """Base class of every failure the CYPRESS pipeline diagnoses."""


class StreamMismatchError(CypressError):
    """The event/marker stream did not match the static CST — indicates
    a static/dynamic inconsistency (a bug, a corrupted capture, or an
    un-instrumented program).

    ``item_index`` is the offending item's index in the rank's stream
    of markers and events as ``ingest_stream`` consumed it (``None``
    when the stream did not come through there) — live tracing raises
    at a drain, after the callback returned, so the message alone no
    longer says where.
    """

    item_index: int | None = None

    def __str__(self) -> str:
        message = super().__str__()
        if self.item_index is None:
            return message
        return f"{message} [stream item {self.item_index}]"


class MergeError(CypressError):
    """The two trees disagree structurally (cannot happen for CTTs built
    from the same CST — indicates a bug or mixed programs)."""


class TraceFormatError(CypressError, ValueError):
    """Corrupt, truncated, or unsupported serialized trace bytes.

    Inherits :class:`ValueError` for one release so existing
    ``except ValueError`` callers around ``serialize.loads`` keep
    working; catch :class:`TraceFormatError` going forward.
    """


class DecompressionError(CypressError):
    """The compressed trace is internally inconsistent under replay.

    ``candidates`` holds the record keys of the failing leaf and
    ``cursors`` where each record would next have replayed, as
    ``(record_index, next_value)`` pairs — the record's first occurrence
    at or after the failing ``visit``, ``None`` when it has none left —
    enough to see *which* payload the replay expected and what it found
    instead.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        gid: int = -1,
        op: str | None = None,
        visit: int = -1,
        candidates: tuple = (),
        cursors: tuple = (),
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.gid = gid
        self.op = op
        self.visit = visit
        self.candidates = tuple(candidates)
        self.cursors = tuple(cursors)


__all__ = [
    "CypressError",
    "StreamMismatchError",
    "MergeError",
    "TraceFormatError",
    "DecompressionError",
]
