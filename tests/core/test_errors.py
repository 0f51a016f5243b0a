"""Error taxonomy: one CypressError root, one name per error."""

import pytest

from repro.core import (
    CypressError,
    MergeError,
    StreamMismatchError,
    TraceFormatError,
    serialize,
)


class TestTaxonomy:
    def test_common_root(self):
        for exc in (StreamMismatchError, MergeError, TraceFormatError):
            assert issubclass(exc, CypressError)

    def test_trace_format_error_is_valueerror_for_now(self):
        # One-release compatibility: serialize used to raise bare
        # ValueError for corrupt files.
        assert issubclass(TraceFormatError, ValueError)

    def test_merge_error_importable_from_inter(self):
        from repro.core.inter import MergeError as via_inter

        assert via_inter is MergeError


class TestRaisedTypes:
    def test_corrupt_trace_raises_trace_format_error(self):
        with pytest.raises(TraceFormatError):
            serialize.loads(b"not a trace at all")
        with pytest.raises(ValueError):  # the compat contract
            serialize.loads(b"CYTRgarbage-after-magic")

    def test_merge_error_on_empty(self):
        from repro.core.inter import merge_all

        with pytest.raises(ValueError):
            merge_all([])
