"""The observability layer must never change what the pipeline produces:
for random structured programs, the serialized trace bytes are identical
with metrics on and off — across the inline (callback) and
capture-then-``compress_streams`` compression paths."""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import serialize  # noqa: E402
from repro.core.api import run_cypress  # noqa: E402
from repro.core.intra import compress_streams  # noqa: E402
from repro.driver import run_compiled  # noqa: E402
from repro.mpisim.pmpi import StreamCaptureSink  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402

SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# mode name -> capture the streams and compress them afterwards?
MODES = {"inline": False, "deferred": True}


def _trace_bytes(
    source: str, nprocs: int, deferred: bool, metrics: bool,
    strict: bool = False,
):
    obs.disable()
    if metrics:
        obs.enable()
    try:
        if not deferred:
            run = run_cypress(source, nprocs, strict=strict)
            return serialize.dumps(run.merge())
        compiled = compile_minimpi(source)
        capture = StreamCaptureSink()
        run_compiled(compiled, nprocs, tracer=capture)
        comp = compress_streams(
            compiled.cst, capture.streams, strict=strict, nranks=nprocs
        )
        return serialize.dumps(
            comp.merged(nranks=nprocs, ranks=range(nprocs))
        )
    finally:
        obs.disable()


class TestMetricsByteIdentity:
    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from(sorted(MODES)))
    def test_trace_bytes_identical_with_metrics_on(self, source, mode):
        nprocs = 2
        off = _trace_bytes(source, nprocs, MODES[mode], metrics=False)
        on = _trace_bytes(source, nprocs, MODES[mode], metrics=True)
        assert on == off, f"{mode}: metrics-on trace differs from metrics-off"

    @settings(**SETTINGS)
    @given(program(allow_functions=True))
    def test_modes_identical_under_metrics(self, source):
        nprocs = 2
        blobs = {
            mode: _trace_bytes(source, nprocs, deferred, metrics=True)
            for mode, deferred in MODES.items()
        }
        assert blobs["deferred"] == blobs["inline"]

    @settings(**SETTINGS)
    @given(program(allow_functions=True), st.sampled_from(sorted(MODES)))
    def test_lenient_mode_identical_to_strict_when_healthy(self, source, mode):
        """Fault tolerance must be free on healthy runs: the default
        lenient (quarantine-on-mismatch) path produces bytes identical
        to strict fail-fast mode in every compression mode."""
        nprocs = 2
        lenient = _trace_bytes(source, nprocs, MODES[mode], metrics=False)
        strict = _trace_bytes(
            source, nprocs, MODES[mode], metrics=False, strict=True
        )
        assert lenient == strict, f"{mode}: lenient bytes differ from strict"
