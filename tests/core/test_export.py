"""Trace export (text/CSV) tests."""

import csv
import io
import sys

sys.path.insert(0, "tests")
from helpers import run_traced  # noqa: E402

from repro.cli import main  # noqa: E402
from repro.core import export, serialize  # noqa: E402
from repro.core.inter import merge_all  # noqa: E402
from repro.mpisim.events import COLLECTIVES  # noqa: E402

SRC = """
func main() {
  mpi_init();
  var rank = mpi_comm_rank();
  var size = mpi_comm_size();
  for (var i = 0; i < 5; i = i + 1) {
    compute(100);
    if (rank < size - 1) { mpi_send(rank + 1, 2048, 3); }
    if (rank > 0) { mpi_recv(rank - 1, 2048, 3); }
  }
  mpi_finalize();
}
"""


def merged_trace(nprocs=4):
    _, rec, cyp, _ = run_traced(SRC, nprocs)
    return rec, merge_all([cyp.ctt(r) for r in range(nprocs)])


def _saved(merged, tmp_path) -> str:
    path = str(tmp_path / "t.cyp")
    serialize.save(merged, path)
    return path


class TestText:
    def test_one_line_per_event(self):
        rec, merged = merged_trace()
        text = export.to_text(merged)
        event_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(event_lines) == sum(len(v) for v in rec.events.values())

    def test_parameters_rendered(self):
        _, merged = merged_trace()
        text = export.to_text(merged)
        assert "MPI_Send" in text and "bytes=2048" in text and "tag=3" in text

    def test_rank_filter(self):
        _, merged = merged_trace()
        text = export.to_text(merged, ranks=[2])
        assert "# rank 2" in text
        assert "# rank 0" not in text

    def test_timestamps_monotone_per_rank(self):
        _, merged = merged_trace()
        text = export.to_text(merged, ranks=[1])
        times = [
            float(l.split()[0])
            for l in text.splitlines()
            if not l.startswith("#")
        ]
        assert times == sorted(times)
        assert times[-1] >= 400  # 4 visible compute(100) gaps

    def test_save(self, tmp_path):
        _, merged = merged_trace()
        path = str(tmp_path / "t.log")
        assert main(["export", _saved(merged, tmp_path), "-o", path]) == 0
        assert open(path).read() == export.to_text(merged)
        assert "MPI_Finalize" in open(path).read()


class TestCsv:
    def test_parses_and_matches_truth(self):
        rec, merged = merged_trace()
        rows = list(csv.DictReader(io.StringIO(export.to_csv(merged))))
        assert len(rows) == sum(len(v) for v in rec.events.values())
        r0 = [r for r in rows if r["rank"] == "0"]
        truth = rec.events[0]
        assert [r["op"] for r in r0] == [e.op for e in truth]
        assert [int(r["nbytes"]) for r in r0] == [e.nbytes for e in truth]

    def test_header_fields(self):
        _, merged = merged_trace()
        reader = csv.reader(io.StringIO(export.to_csv(merged)))
        assert tuple(next(reader)) == export.CSV_FIELDS

    def test_save(self, tmp_path):
        _, merged = merged_trace(2)
        path = str(tmp_path / "t.csv")
        assert main(["export", _saved(merged, tmp_path), "-f", "csv",
                     "--ranks", "0", "-o", path]) == 0
        rows = list(csv.DictReader(open(path)))
        assert all(r["rank"] == "0" for r in rows)


class TestReport:
    def test_summary_counts(self):
        from repro.analysis.report import summarize

        rec, merged = merged_trace()
        report = summarize(merged)
        assert report.nranks == 4
        assert report.total_events == sum(len(v) for v in rec.events.values())
        assert report.ops["MPI_Send"].calls == 15  # 3 senders x 5 iterations
        assert report.ops["MPI_Send"].nbytes == 15 * 2048

    def test_comm_fraction_bounded(self):
        from repro.analysis.report import summarize

        _, merged = merged_trace()
        report = summarize(merged)
        assert 0.0 < report.comm_fraction < 1.0

    def test_volume_split(self):
        from repro.analysis.report import summarize

        _, merged = merged_trace()
        report = summarize(merged)
        volume = {False: 0, True: 0}
        for profile in report.ops.values():
            volume[profile.op in COLLECTIVES] += profile.nbytes
        assert volume[False] == 2 * 15 * 2048  # sends + recvs
        assert volume[True] == 0

    def test_format_renders(self):
        from repro.analysis.report import summarize

        _, merged = merged_trace()
        text = summarize(merged).format()
        assert "MPI_Send" in text and "ranks: 4" in text

    def test_cli_info_and_export(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "t.cyp")
        assert main(["trace", "ep", "-n", "4", "--scale", "0.5", "-o", trace]) == 0
        assert main(["info", trace]) == 0
        out = capsys.readouterr().out
        assert "MPI_Allreduce" in out
        csv_path = str(tmp_path / "t.csv")
        assert main(["export", trace, "-f", "csv", "-o", csv_path]) == 0
        assert "MPI_Allreduce" in open(csv_path).read()