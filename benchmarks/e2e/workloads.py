"""The five workloads: which programs, at what size.

Names are final (later issues cite them); the "why" sentences live in
``BENCHMARK.json`` and the README.  Sizes are cut from the issue's
targets only where the driver's time cap needs it, never the property
the workload exists for (see README, "Sizing").
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Job:
    workload: str  # name in repro.workloads
    nprocs: int
    scale: float


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "batch" | "budget" | "serve"
    jobs: tuple[Job, ...]

    def smoke(self) -> "Spec":
        """Scale ÷ 10, and 64 ranks where the full size has 256."""
        return replace(self, jobs=tuple(
            replace(job, scale=job.scale / 10, nprocs=min(job.nprocs, 64))
            for job in self.jobs
        ))


SPECS = {
    spec.name: spec
    for spec in (
        # long streams, few ranks (~22k stream items, 5.5k a rank)
        Spec("loop_fig11", "batch", (Job("fig11", 4, 5),)),
        # ~180 KB container: exact-parameter merging fails (Fig. 15h)
        Spec("irregular_sp", "batch", (Job("sp", 16, 3),)),
        # 256 short streams with rank-dependent branches
        Spec("wide_mg", "batch", (Job("mg", 256, 0.1),)),
        # round-robin 4096-item chunks under a 1-byte memory budget
        Spec("budget_cg", "budget", (Job("cg", 8, 3),)),
        # two jobs through a `repro serve` subprocess, one wildcard-heavy
        Spec("serve_mixed", "serve", (Job("fig11", 4, 10), Job("farm", 8, 20))),
    )
}
