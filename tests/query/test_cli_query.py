"""`repro query` CLI: every query, JSON output, required-flag
validation, and the engine == replay cross-check of a stored trace
(``python -m tests.query.check``) with its failure mode."""

import json

import pytest

from repro.cli import main
from tests.query import check


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("query") / "cg.cyp")
    assert main(["trace", "cg", "-n", "4", "--scale", "0.3",
                 "-o", path]) == 0
    return path


class TestQueryCLI:
    def test_traffic_table_and_oracle(self, trace, capsys):
        assert main(["query", trace, "traffic"]) == 0
        out = capsys.readouterr().out
        assert "messages" in out and "MPI_" in out
        assert check.main([trace, "traffic"]) == 0
        assert "oracle check: engine == replay" in capsys.readouterr().out

    def test_traffic_rank_pair_json(self, trace, tmp_path, capsys):
        out = str(tmp_path / "traffic.json")
        assert main(["query", trace, "traffic", "--group-by", "rank_pair",
                     "-o", out]) == 0
        data = json.loads(open(out).read())
        assert data  # non-empty matrix
        for key, cell in data.items():
            src, dst = key.split("->")
            assert src.isdigit() and dst.isdigit()
            assert cell["messages"] > 0

    def test_ordering(self, trace, capsys):
        question = ["ordering", "--gid-a", "5", "--gid-b", "7", "--rank", "0"]
        assert main(["query", trace, *question]) == 0
        assert "rank 0" in capsys.readouterr().out
        assert check.main([trace, *question]) == 0

    def test_ordering_requires_flags(self, trace):
        with pytest.raises(SystemExit, match="--gid-a is required"):
            main(["query", trace, "ordering"])

    def test_rank_profile(self, trace, capsys):
        question = ["rank-profile", "--rank", "1"]
        assert main(["query", trace, *question]) == 0
        out = capsys.readouterr().out
        assert "rank 1" in out and "events" in out
        assert check.main([trace, *question]) == 0

    def test_critical_leaves_json_stdout(self, trace, capsys):
        assert main(["query", trace, "critical-leaves", "--top", "3",
                     "-o", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 3
        assert all("path" in leaf and "total_us" in leaf for leaf in data)

    def test_oracle_mismatch_exits_nonzero(self, trace, tmp_path, capsys,
                                           monkeypatch):
        from repro import query as q

        real = q.traffic

        def skewed(merged, group_by="op", nprocs=None):
            out = real(merged, group_by=group_by, nprocs=nprocs)
            key = next(iter(out))
            out[key] = q.Traffic(messages=out[key].messages + 1,
                                 nbytes=out[key].nbytes)
            return out

        monkeypatch.setattr(q, "traffic", skewed)
        assert check.main([trace, "traffic"]) == 1
        assert "ORACLE MISMATCH" in capsys.readouterr().err

    def test_metrics_flag_reports_query_spans(self, trace, capsys):
        assert main(["query", trace, "critical-leaves", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "query.critical_leaves" in out
