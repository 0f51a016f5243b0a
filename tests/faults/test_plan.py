"""FaultPlan determinism and the fault primitives themselves."""

import pytest

from repro.mpisim.events import CommEvent
from repro.mpisim.pmpi import OP_EVENT, OP_LOOP_POP, OP_LOOP_PUSH
from tests.faults.data import bitflip, truncate
from tests.faults.plan import CORRUPT_KINDS, FaultPlan
from tests.faults.streams import BOGUS_OP, BOGUS_OPCODE, corrupt_stream


def _stream(nevents=4):
    out = [(OP_LOOP_PUSH, 7)]
    for i in range(nevents):
        out.append((OP_EVENT, CommEvent(op="MPI_Send", rank=0, seq=i, peer=1)))
    out.append((OP_LOOP_POP, 7))
    return out


class TestPlanDeterminism:
    def test_same_seed_same_stream(self):
        a = FaultPlan(seed=42).rng("stream", 3)
        b = FaultPlan(seed=42).rng("stream", 3)
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]

    def test_salt_separates_streams(self):
        plan = FaultPlan(seed=42)
        assert plan.rng("stream", 0).random() != plan.rng("stream", 1).random()
        assert plan.rng("bytes").random() != plan.rng("stream").random()

    def test_with_seed(self):
        plan = FaultPlan(seed=1)
        other = plan.with_seed(9)
        assert other == FaultPlan(seed=9)
        assert plan.seed == 1  # frozen original untouched
        draw = other.rng("stream", 0).random()
        assert draw == FaultPlan(seed=9).rng("stream", 0).random()
        assert draw != plan.rng("stream", 0).random()

    def test_corruption_is_reproducible(self):
        plan = FaultPlan(seed=5)
        stream = _stream()
        once = corrupt_stream(stream, "mixed", plan.rng("stream", 0))
        twice = corrupt_stream(stream, "mixed", plan.rng("stream", 0))
        assert once == twice
        assert stream == _stream()  # the capture itself is not touched


class TestStreamCorruption:
    @pytest.mark.parametrize("kind", CORRUPT_KINDS + ("mixed",))
    def test_each_kind_changes_the_stream(self, kind):
        stream = _stream()
        rng = FaultPlan(seed=3).rng("k", kind)
        bad = corrupt_stream(stream, kind, rng)
        assert bad != stream
        assert stream == _stream()  # original untouched

    def test_opcode_kind_inserts_bogus_opcode(self):
        bad = corrupt_stream(_stream(), "opcode", FaultPlan(seed=1).rng())
        assert any(item[0] == BOGUS_OPCODE for item in bad)

    def test_unknown_op_rewrites_an_event(self):
        bad = corrupt_stream(_stream(), "unknown-op", FaultPlan(seed=1).rng())
        ops = [item[1].op for item in bad if item[0] == OP_EVENT]
        assert BOGUS_OP in ops

    def test_unknown_op_degrades_without_events(self):
        markers = [(OP_LOOP_PUSH, 7), (OP_LOOP_POP, 7)]
        bad = corrupt_stream(markers, "unknown-op", FaultPlan(seed=1).rng())
        assert any(item[0] == BOGUS_OPCODE for item in bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            corrupt_stream(_stream(), "gamma-ray", FaultPlan().rng())


class TestByteCorruption:
    def test_truncate_fraction(self):
        assert truncate(b"x" * 100, fraction=0.25) == b"x" * 25
        assert len(truncate(b"x" * 100, rng=FaultPlan(seed=1).rng())) < 100

    def test_truncate_tiny_input(self):
        assert truncate(b"a") == b""
        assert truncate(b"") == b""

    def test_bitflip_changes_exactly_one_bit(self):
        data = bytes(64)
        out = bitflip(data, FaultPlan(seed=4).rng())
        diff = [a ^ b for a, b in zip(data, out)]
        assert sum(bin(d).count("1") for d in diff) == 1
