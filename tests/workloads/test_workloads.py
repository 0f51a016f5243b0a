"""Workload kernels: execution, replay exactness, and pattern checks."""

import sys

import numpy as np
import pytest

sys.path.insert(0, "tests")
from helpers import assert_replay_exact, run_traced  # noqa: E402

from repro.analysis.patterns import (  # noqa: E402
    communication_matrix,
    message_sizes,
    neighbor_sets,
)
from repro.core.inter import merge_all  # noqa: E402
from repro.workloads import WORKLOADS, get, grid_2d, grid_3d  # noqa: E402

SMALL_PROCS = {
    "bt": 9, "cg": 8, "dt": 9, "ep": 8, "ft": 8, "is": 8,
    "lu": 8, "mg": 8, "sp": 9, "leslie3d": 8, "farm": 7, "amr": 16,
    "fig11": 8,
}


#: Every workload at its small count (id: the name), then at every valid
#: count up to 9 at a small scale (id: name-P<count>).
SHAPES = [
    pytest.param(name, SMALL_PROCS[name], 0.5, id=name)
    for name in sorted(WORKLOADS)
] + [
    pytest.param(name, p, 0.1, id=f"{name}-P{p}")
    for name in sorted(WORKLOADS)
    for p in WORKLOADS[name].valid_procs if p <= 9
]


class TestEveryWorkload:
    @pytest.mark.parametrize("name, nprocs, scale", SHAPES)
    def test_runs_and_replays_exactly(self, name, nprocs, scale):
        w = get(name)
        _, rec, cyp, result = run_traced(
            w.source, nprocs, defines=w.defines(nprocs, scale),
            max_steps=None,
        )
        assert result.total_events > 0
        assert_replay_exact(rec, cyp, nprocs, merged=True)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_invalid_proc_count_rejected(self, name):
        w = get(name)
        bad = 3 if 3 not in w.valid_procs else 10**9
        with pytest.raises(ValueError):
            w.check_procs(bad)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_scale_reduces_events(self, name):
        if name == "dt":
            pytest.skip("DT has no time-step loop")
        w = get(name)
        nprocs = SMALL_PROCS[name]
        half = w.defines(nprocs, 0.5)
        full = w.defines(nprocs, 1.0)
        assert any(half[k] < full[k] for k in half)


class TestGridHelpers:
    def test_grid_3d_factors(self):
        for p in (8, 16, 32, 64, 128, 256, 512):
            x, y, z = grid_3d(p)
            assert x * y * z == p
            assert x >= y >= z

    def test_grid_2d_factors(self):
        for p in (4, 8, 16, 64, 128, 512):
            x, y = grid_2d(p)
            assert x * y == p
            assert x >= y

    def test_non_pow2_rejected(self):
        with pytest.raises(ValueError):
            grid_3d(12)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get("hpl")


class TestPatternFidelity:
    def test_leslie3d_locality_matches_paper(self):
        """Paper Fig. 20a: at P=32, rank 0 talks only to ranks 1, 2, 8."""
        w = get("leslie3d")
        _, rec, cyp, _ = run_traced(w.source, 32, defines=w.defines(32, 0.2),
                                    max_steps=None)
        merged = merge_all([cyp.ctt(r) for r in range(32)])
        matrix = communication_matrix(merged, 32)
        neighbors = neighbor_sets(matrix)
        assert neighbors[0] == [1, 2, 8]

    def test_leslie3d_two_message_sizes(self):
        """Paper §VII-D: exactly two point-to-point sizes, 43KB and 83KB."""
        w = get("leslie3d")
        _, rec, cyp, _ = run_traced(w.source, 16, defines=w.defines(16, 0.2),
                                    max_steps=None)
        merged = merge_all([cyp.ctt(r) for r in range(16)])
        sizes = message_sizes(merged)
        assert set(sizes) == {43 * 1024, 83 * 1024}

    def test_mg_coarse_levels_use_subset_of_ranks(self):
        """Paper Fig. 17a: nested tori — long-stride partners appear."""
        w = get("mg")
        _, rec, cyp, _ = run_traced(w.source, 8, defines=w.defines(8, 0.3),
                                    max_steps=None)
        merged = merge_all([cyp.ctt(r) for r in range(8)])
        matrix = communication_matrix(merged, 8)
        # finest level: +-1; coarser z level: stride 4 partner for rank 0
        assert matrix[0, 1] > 0
        assert matrix[0, 4] > 0

    def test_bt_wraparound_neighbors(self):
        w = get("bt")
        nprocs = 9
        _, rec, cyp, _ = run_traced(w.source, nprocs,
                                    defines=w.defines(nprocs, 0.3),
                                    max_steps=None)
        merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
        matrix = communication_matrix(merged, nprocs)
        # rank 0 on a 3x3 grid: row successor 1, col successor 3, diag 4
        assert matrix[0, 1] > 0 and matrix[0, 3] > 0 and matrix[0, 4] > 0

    def test_lu_wavefront_is_acyclic_per_sweep(self):
        w = get("lu")
        nprocs = 8
        _, rec, cyp, _ = run_traced(w.source, nprocs,
                                    defines=w.defines(nprocs, 0.3),
                                    max_steps=None)
        merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
        matrix = communication_matrix(merged, nprocs)
        # neighbours only (grid 4x2): no long-range traffic
        px, py = grid_2d(nprocs)
        for src in range(nprocs):
            for dst in np.nonzero(matrix[src])[0]:
                dr = abs(int(dst) // px - src // px)
                dc = abs(int(dst) % px - src % px)
                assert dr + dc == 1

    def test_ep_has_no_point_to_point(self):
        w = get("ep")
        _, rec, cyp, _ = run_traced(w.source, 8, defines=w.defines(8, 0.5))
        merged = merge_all([cyp.ctt(r) for r in range(8)])
        matrix = communication_matrix(merged, 8)
        assert matrix.sum() == 0

    def test_dt_sink_gathers_from_leaves(self):
        w = get("dt")
        nprocs = 9
        _, rec, cyp, _ = run_traced(w.source, nprocs, defines=w.defines(nprocs, 1.0))
        merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
        matrix = communication_matrix(merged, nprocs)
        # leaves (ranks with 4r+1 >= 9, i.e. 2..8) send results to rank 0
        assert all(matrix[leaf, 0] > 0 for leaf in range(2, 9))

    def test_sp_message_sizes_vary_per_rank(self):
        """The SP adversarial property the paper calls out."""
        w = get("sp")
        nprocs = 9
        _, rec, cyp, _ = run_traced(w.source, nprocs,
                                    defines=w.defines(nprocs, 0.3),
                                    max_steps=None)
        merged = merge_all([cyp.ctt(r) for r in range(nprocs)])
        assert len(message_sizes(merged)) > 10
