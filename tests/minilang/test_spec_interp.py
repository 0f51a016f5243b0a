"""The compiled interpreter against its oracle, the tree-walker in
``tests/spec_interp.py``.

Both run the same compiled program on the same simulated machine, once
with markers (a stream capture beside a recorder) and once without (a
recorder alone).  They must agree on every captured item (markers,
events with every field and time, request completions), the recorded
ground truth, the ``RunResult`` and the ``print`` output — and, for a
failing program, on the exception's type and message and on what was
captured up to it.

The Hypothesis sweep runs ``INTERP_SWEEP_EXAMPLES`` random programs
(default 25); CI's integrity job raises it for a deeper pass.
"""

import dataclasses
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")
from generators import program  # noqa: E402
from spec_interp import Interpreter as SpecInterpreter  # noqa: E402

from repro.minilang import ast_nodes as A  # noqa: E402
from repro.minilang.interp import (  # noqa: E402
    InstrumentationPlan, Interpreter, InterpError,
)
from repro.mpisim.pmpi import (  # noqa: E402
    MultiSink, RecordingSink, StreamCaptureSink,
)
from repro.mpisim.runtime import Runtime  # noqa: E402
from repro.static.instrument import compile_minimpi  # noqa: E402
from repro.workloads.registry import WORKLOADS  # noqa: E402

SWEEP_EXAMPLES = int(os.environ.get("INTERP_SWEEP_EXAMPLES", "25"))


def _run(interp_cls, compiled, nprocs, *, markers, defines=None,
         max_steps=None):
    """Run once; returns everything observable about the run."""
    recorder = RecordingSink()
    capture = StreamCaptureSink() if markers else None
    tracer = MultiSink([capture, recorder]) if markers else recorder
    output: list[str] = []
    runtime = Runtime(nprocs, tracer=tracer)

    def rank_main(comm):
        return interp_cls(
            compiled.program, comm, defines=defines, plan=compiled.plan,
            output=output, max_steps=max_steps,
        ).run()

    try:
        result = runtime.run(rank_main)
        outcome = (
            result.finish_times, result.total_events,
            result.total_messages, result.rounds,
        )
    except Exception as exc:  # the oracle decides what is an error
        # A failed run leaves the other ranks' generators suspended.
        # Dropping the exception frees its traceback and the scheduler
        # frame that holds them, which closes them and runs their exit
        # markers before the streams are read below.
        outcome = (type(exc), str(exc))
    return {
        "outcome": outcome,
        "streams": None if capture is None else capture.streams,
        "truth": recorder.events,
        "output": output,
    }


def assert_same(compiled, nprocs, **kw):
    """Both interpreters, with and without markers; returns the product's
    marker run."""
    for markers in (True, False):
        spec = _run(SpecInterpreter, compiled, nprocs, markers=markers, **kw)
        ours = _run(Interpreter, compiled, nprocs, markers=markers, **kw)
        assert ours["outcome"] == spec["outcome"]
        assert ours["streams"] == spec["streams"]
        assert ours["truth"] == spec["truth"]
        assert ours["output"] == spec["output"]
        if markers:
            mine = ours
    return mine


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_at_its_smallest_rank_count(name):
    workload = WORKLOADS[name]
    nprocs = min(workload.valid_procs)
    compiled = compile_minimpi(workload.source)
    run = assert_same(compiled, nprocs,
                      defines=workload.defines(nprocs, 0.1))
    assert not isinstance(run["outcome"][0], type)
    assert run["outcome"][1] > 0
    assert sum(len(s) for s in run["streams"].values()) > run["outcome"][1]


@settings(
    max_examples=SWEEP_EXAMPLES, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program(allow_functions=True, allow_subcomms=True),
       st.sampled_from([2, 4]))
def test_random_programs(source, nprocs):
    assert_same(compile_minimpi(source), nprocs)


# Programs the generators do not write: every expression and statement
# form, ``print``, returns out of branches, early returns out of loops
# and ``break`` / ``continue`` (both legal only without the CYPRESS
# pass), arrays passed by reference, wildcard receives and nonblocking
# calls inside expressions.
PROGRAMS = {
    "expressions": (True, """
        func sq(x) { return x * x; }
        func main() {
          var a[4];
          var s = "label";
          a[1] = 7;
          a[sq(1) + 1] = -a[1] / 2 + 9 % 4 - (-7 % 3);
          print(s, a[2], 7 / 2, -7 / 2, 3 < 5, 5 <= 4, 2 > 1, 2 >= 3,
                1 == 1, 1 != 1, 1 && 0, 0 || 3, !0, !5, -a[1]);
          print(min(3, 4), max(3, 4), abs(0 - 6), ilog2(9), pow2(10),
                isqrt(17), mpi_comm_rank(), mpi_comm_size(), mpi_wtime());
          print(sq(sq(2)) + sq(3) * 2);
        }
    """),
    "returns_from_branches": (True, """
        func pick(n) {
          mpi_barrier();
          if (n > 1) { mpi_bcast(0, 8); return n * 2; } else {
            for (var i = 0; i < 2; i = i + 1) { mpi_allreduce(8); }
          }
          return 0 - 1;
        }
        func main() { print(pick(mpi_comm_size()), pick(1)); }
    """),
    "early_returns": (False, """
        func pick(n) {
          for (var i = 0; i < 10; i = i + 1) {
            if (i == n) { return i * 10; }
            mpi_barrier();
          }
          return 0 - 1;
        }
        func none() { return; }
        func main() {
          print(pick(2), pick(20), none());
          if (mpi_comm_rank() == 0) { print(pick(0)); } else { print(0); }
        }
    """),
    "break_continue": (False, """
        func main() {
          var s = 0;
          for (var i = 0; i < 10; i = i + 1) {
            if (i % 3 == 0) { continue; }
            if (i > 7) { break; }
            mpi_allreduce(8);
            s = s + i;
          }
          var n = 0;
          while (1) {
            n = n + 1;
            if (n == 4) { break; }
          }
          for (;;) { break; }
          print(s, n);
        }
    """),
    "requests_in_expressions": (True, """
        func main() {
          var rank = mpi_comm_rank();
          var size = mpi_comm_size();
          var r[2];
          r[0] = mpi_irecv(-1, 64, 3);
          r[1] = mpi_isend((rank + 1) % size, 64, 3);
          print(mpi_waitall(r, 2));
          var x = mpi_isend((rank + 1) % size, 8, 4) * 0
                  + mpi_wait(mpi_irecv((rank + size - 1) % size, 8, 4));
          print(x, max(mpi_bcast(0, 16), 0));
          var c = mpi_comm_split(0, rank % 2, rank);
          print(mpi_comm_rank_on(c), mpi_comm_size_on(c));
          mpi_allreduce_on(c, 8);
        }
    """),
    "recursion": (True, """
        func down(n) {
          if (n == 0) { return 0; } else {
            mpi_bcast(0, 8);
            return 1 + down(n - 1);
          }
        }
        func fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        func main() { print(down(4), fib(10)); }
    """),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("nprocs", [2, 4])
def test_handwritten_programs(name, nprocs):
    cypress, source = PROGRAMS[name]
    run = assert_same(compile_minimpi(source, cypress=cypress), nprocs)
    assert not isinstance(run["outcome"][0], type)
    assert run["output"]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_plan_that_marks_every_structure(name):
    # The static phase marks only structures that reach MPI; a plan
    # naming every ``if`` and loop (and a pseudo-loop per function)
    # drives the marker code of call-free structures too.
    cypress, source = PROGRAMS[name]
    compiled = compile_minimpi(source, cypress=cypress)
    nodes = [n for f in compiled.program.functions.values() for n in A.walk(f)]
    plan = InstrumentationPlan(
        instrumented_ast_ids=frozenset(
            n.node_id for n in nodes if isinstance(n, (A.If, A.For, A.While))
        ),
        recursive_pseudo={
            name: fdef.node_id
            for name, fdef in compiled.program.functions.items()
        },
    )
    run = assert_same(dataclasses.replace(compiled, plan=plan), 2)
    assert not isinstance(run["outcome"][0], type)


FAILURES = {
    "undefined_variable": ("mpi_barrier(); print(nope);",
                           "undefined variable 'nope' at line 1"),
    "division_by_zero": ("mpi_barrier(); print(1 / (mpi_comm_rank() * 0));",
                         "division by zero"),
    "modulo_by_zero": ("var z = 0; print(5 % z);", "modulo by zero"),
    "index_read": ("var a[2]; print(a[2]);",
                   "index 2 out of bounds for 'a'[2] at line 1"),
    "index_write": ("var a[2]; a[0 - 1] = 1;",
                    "index -1 out of bounds for 'a'[2] at line 1"),
    "mpi_arity": ("mpi_barrier(1);",
                  "mpi_barrier() takes 0 argument(s), got 1 at line 1"),
    "function_arity": ("f(1);", "f() takes 2 argument(s), got 1"),
    "call_depth": ("g();", "call depth limit exceeded in g()"),
}
EXTRA = "func f(a, b) { mpi_barrier(); } func g() { mpi_barrier(); g(); }"


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures(name):
    body, message = FAILURES[name]
    source = f"func main() {{ for (var i = 0; i < 2; i = i + 1) {{ {body} }} }} {EXTRA}"
    run = assert_same(compile_minimpi(source), 2)
    assert run["outcome"] == (InterpError, message)


@pytest.mark.parametrize("max_steps, line", [(7, 4), (12, 3), (14, 7)])
def test_step_limit_inside_and_outside_a_loop(max_steps, line):
    source = (
        "func main() {\n"
        "  var x = 1;\n"
        "  for (var i = 0; i < 3; i = i + 1) {\n"
        "    mpi_barrier();\n"
        "  }\n"
        "  x = 2;\n"
        "  x = 3;\n"
        "  x = 4;\n"
        "}\n"
    )
    compiled = compile_minimpi(source)
    run = assert_same(compiled, 2, max_steps=max_steps)
    assert run["outcome"] == (
        InterpError, f"step limit {max_steps} exceeded at line {line}"
    )
    assert assert_same(compiled, 2, max_steps=100)["outcome"][1] == 6
