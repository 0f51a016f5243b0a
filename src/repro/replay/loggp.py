"""LogGP communication model (Alexandrov et al. [22]) — the cost model of
the SIM-MPI trace-driven simulator (paper §V).

A point-to-point message of ``k`` bytes costs the sender ``o``, spends
``L + (k-1)·G`` on the wire, and costs the receiver ``o``; ``g`` bounds
per-message injection rate.  Collectives are *decomposed into
point-to-point operations* (paper §V citing [23]); the decomposition
schedules live in :mod:`repro.replay.decomposition`.

Parameters are *fitted* from ping-pong measurements on the target machine
(see :mod:`repro.replay.calibrate`) rather than copied from the machine
model — SIM-MPI predicts a machine it can only observe, which is why the
paper reports a 5.9% average prediction error rather than zero.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LogGPParams:
    """All times in microseconds; G in us/byte."""

    L: float = 2.0  # latency
    o: float = 0.7  # per-message CPU overhead (each side)
    g: float = 0.5  # gap between consecutive messages
    G: float = 0.0004  # gap per byte (1/bandwidth)

    def p2p_time(self, nbytes: int) -> float:
        """End-to-end time of one message: send overhead to receive done."""
        wire = self.L + max(0, nbytes - 1) * self.G
        return self.o + wire + self.o

    def sender_busy(self, nbytes: int) -> float:
        """Time the sender's CPU is occupied."""
        return max(self.o, self.g)
