"""Figure 16 — intra-process compression overhead: time % (vs the
untraced run) and per-process compressor memory, for ScalaTrace /
ScalaTrace-2 / CYPRESS on BT, CG, FT, LU, MG, SP.

Paper headline (§VII-C1): NPB average intra overhead 51.05% (ScalaTrace),
9.1% (ScalaTrace-2), 1.58% (CYPRESS) — an average ~5x reduction vs the
best dynamic method.  We assert the ordering and a >2x CYPRESS-vs-
ScalaTrace gap on every workload (Python constants differ; direction and
factor are the reproducible part).

Each time percentage is printed with the method's microseconds per
traced event beside it: the percentage's denominator is the untraced
simulated run, which changes whenever the simulator does, so only the
per-event cost compares across versions of this repo.
"""

import pytest

from repro.analysis.stats import APP_MEMORY_BASELINE

from .common import SCALE, emit, fmt_row, measurement, procs_for

WORKLOADS = ("bt", "cg", "ft", "lu", "mg", "sp")
METHODS = ("scalatrace", "scalatrace2", "cypress")


@pytest.mark.parametrize("name", WORKLOADS)
def test_fig16_table(benchmark, name):
    def build():
        rows = []
        for nprocs in procs_for(name):
            m = measurement(name, nprocs)
            time_pct = {k: m.overhead_pct(k, "intra") for k in METHODS}
            us = {k: m.us_per_event(k, "intra") for k in METHODS}
            mem_pct = {
                k: 100.0 * m.methods[k].memory_bytes / APP_MEMORY_BASELINE
                for k in ("scalatrace", "cypress")
            }
            rows.append((nprocs, time_pct, us, mem_pct))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    widths = [6, 22, 22, 22, 14, 14]
    lines = [
        f"Figure 16 ({name.upper()}): intra-process overhead, scale={SCALE}"
        " (time % of the untraced run, us per traced event)",
        fmt_row(
            ["procs", "t%ScalaTrace (us/ev)", "t%ScalaTrace2 (us/ev)",
             "t%Cypress (us/ev)", "m%ScalaTrace", "m%Cypress"],
            widths,
        ),
    ]
    for nprocs, tp, us, mp in rows:
        lines.append(
            fmt_row(
                [
                    nprocs,
                    *(f"{tp[k]:.1f} ({us[k]:.2f})" for k in METHODS),
                    f"{mp['scalatrace']:.4f}",
                    f"{mp['cypress']:.4f}",
                ],
                widths,
            )
        )
    emit(f"fig16_{name}", lines)

    # --- shape assertions -------------------------------------------------
    for nprocs, tp, _, mp in rows:
        assert tp["cypress"] < tp["scalatrace"], f"{name}@{nprocs}"
        assert mp["cypress"] <= mp["scalatrace"] * 1.5, f"{name}@{nprocs}"


def test_fig16_average_summary(benchmark):
    """The §VII-C1 averages across the six workloads."""

    def build():
        total = {k: 0.0 for k in METHODS}
        per_event = {k: 0.0 for k in METHODS}
        n = 0
        for name in WORKLOADS:
            for nprocs in procs_for(name):
                m = measurement(name, nprocs)
                for k in METHODS:
                    total[k] += m.overhead_pct(k, "intra")
                    per_event[k] += m.us_per_event(k, "intra")
                n += 1
        return ({k: v / n for k, v in total.items()},
                {k: v / n for k, v in per_event.items()})

    avg, avg_us = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [
        "Figure 16 summary: average intra-process time overhead (paper: "
        "ScalaTrace 51.05%, ScalaTrace2 9.1%, Cypress 1.58%) and time per "
        "traced event",
    ] + [f"  {k:12s} {v:8.1f}%  {avg_us[k]:6.2f} us/event"
         for k, v in avg.items()]
    emit("fig16_summary", lines)
    # CYPRESS must be the cheapest by a clear factor.  (Our ScalaTrace-2
    # reimplementation pays ~20% more per event than ScalaTrace-1 on the
    # *regular* codes — elastic shape matching isn't free — so the
    # paper's ST2 < ST ordering only reproduces on the complex patterns;
    # see EXPERIMENTS.md.)
    assert avg["cypress"] < avg["scalatrace"]
    assert avg["cypress"] < avg["scalatrace2"]
    assert avg["cypress"] * 2 < avg["scalatrace"]
