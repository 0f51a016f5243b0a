"""Fault-tolerant worker-pool executor shared by both compression pools.

The intra-process compression shards (:func:`repro.core.intra.
compress_streams`) and the inter-process reduction chunks
(:func:`repro.core.inter.merge_all`) used to run on a bare
``multiprocessing.Pool`` whose every failure — pool creation refused by
a sandbox, a worker OOM-killed, a worker hung — collapsed into one
silent ``except (OSError, ValueError, ImportError)`` that quietly
degraded to serial.  :func:`run_tasks` replaces that with an explicit
recovery ladder (docs/INTERNALS.md §7):

1. **pool attempt** — one forked worker process per task (tasks are
   already worker-count-sized shards), results shipped back over pipes;
   a worker that raises, is killed (pipe closes with no message), or
   blows its per-task ``timeout`` marks only *its* task failed;
2. **bounded retry** — failed tasks are re-run on fresh workers, up to
   ``retries`` rounds with exponential backoff (injected faults fire on
   their configured attempts only, so retries exercise real recovery);
3. **serial re-execution** — tasks still failing after every retry run
   in the parent process, one by one.  Task functions are deterministic
   and side-effect-free on the parent, so the recovered result is
   byte-identical to an all-healthy run; a *deterministic* task error
   (e.g. a strict-mode stream mismatch) re-raises here as itself.

Every degradation is loud: a ``RuntimeWarning`` plus the ``obs``
counters ``faults.retries``, ``faults.task_failures`` and
``faults.pool_fallbacks``.

Fault injection: a seeded :class:`~repro.faults.FaultPlan` threads a
kill/hang/raise action into specific (stage, task, attempt) slots; the
action executes worker-side before the task body, exactly where a real
crash would land.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from multiprocessing import connection as _mpconn

from repro import obs
from repro.faults.workers import apply_worker_fault


class _PoolUnavailable(Exception):
    """Raised internally when no worker process could be started at all
    (fork refused, no pipes, …) — the caller falls back to serial."""


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` when the
    platform cannot fork.

    Workers rely on fork-inherited state — the task function, payload
    objects and open sinks are *inherited*, never pickled — so quietly
    substituting the platform default (``spawn`` on macOS/Windows)
    would re-import the parent module in every worker and re-pickle
    arguments that were never designed to travel: at best it dies, at
    worst it double-runs work.  Callers treat ``None`` as "take the
    loud serial fallback"."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _child_main(conn, func, payload, fault_action, hang_seconds) -> None:
    """Worker body: optional injected fault, then the task.  Reports
    ``("ok", result)`` or ``("err", message)`` over the pipe; a killed
    worker reports nothing — the parent sees the pipe close."""
    try:
        apply_worker_fault(fault_action, hang_seconds)
        msg = ("ok", func(payload))
    except BaseException as exc:  # noqa: BLE001 - ship any failure home
        msg = ("err", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(msg)
    except Exception:  # parent already gave up on us
        pass
    finally:
        conn.close()


def _warn_degraded(stage: str, what: str) -> None:
    warnings.warn(
        f"{stage}: {what}",
        RuntimeWarning,
        stacklevel=3,
    )


def _run_wave(
    ctx,
    func,
    payloads,
    indices,
    workers: int,
    timeout: float | None,
    fault_plan,
    stage: str,
    attempt: int,
    hang_seconds: float,
):
    """Run one round of ``indices`` on at most ``workers`` concurrent
    processes.  Returns ``(results, failures)`` where ``failures`` is a
    list of ``(index, reason)``.  Raises :class:`_PoolUnavailable` if
    not even one worker could be started."""
    results: dict[int, object] = {}
    failures: list[tuple[int, str]] = []
    queue = deque(indices)
    running: dict[object, tuple[int, object, float | None]] = {}
    started_any = False

    while queue or running:
        while queue and len(running) < workers:
            i = queue.popleft()
            fault = (
                fault_plan.worker_fault(stage, i, attempt)
                if fault_plan is not None
                else None
            )
            try:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, func, payloads[i], fault, hang_seconds),
                )
                proc.start()
            except (OSError, ValueError, ImportError) as exc:
                if not started_any and not running and not results:
                    raise _PoolUnavailable(str(exc)) from exc
                failures.append((i, f"worker spawn failed: {exc}"))
                continue
            started_any = True
            child_conn.close()
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            running[parent_conn] = (i, proc, deadline)
        if not running:
            break
        now = time.monotonic()
        deadlines = [d for (_, _, d) in running.values() if d is not None]
        wait_for = max(0.0, min(deadlines) - now) if deadlines else None
        ready = _mpconn.wait(list(running), timeout=wait_for)
        for conn in ready:
            i, proc, _deadline = running.pop(conn)
            try:
                kind, value = conn.recv()
            except (EOFError, OSError):
                # The pipe closed with no message: the worker died
                # without reporting (SIGKILL / OOM / segfault).
                proc.join()
                kind = "err"
                value = f"worker died (exit code {proc.exitcode})"
            conn.close()
            proc.join()
            if kind == "ok":
                results[i] = value
            else:
                failures.append((i, value))
        now = time.monotonic()
        overdue = [
            conn
            for conn, (_i, _p, d) in running.items()
            if d is not None and d <= now
        ]
        for conn in overdue:
            i, proc, _deadline = running.pop(conn)
            proc.kill()
            proc.join()
            conn.close()
            failures.append((i, f"task exceeded {timeout}s timeout"))
    return results, failures


def run_tasks(
    func,
    payloads,
    *,
    stage: str,
    workers: int,
    retries: int = 1,
    timeout: float | None = None,
    backoff: float = 0.05,
    fault_plan=None,
) -> list:
    """Run ``func`` over every payload with pool → retry → serial
    recovery; returns results in payload order.

    ``func`` must be a module-level function of one argument (the same
    pickling contract the old ``Pool.map`` path had), deterministic, and
    safe to re-execute — all three task functions in this codebase
    compress/merge immutable inputs, so re-running a shard is exact.
    ``timeout`` is per task attempt (``None`` disables — a genuinely
    hung worker then blocks, as it always did).  ``fault_plan`` injects
    worker faults for tests/CI and is never set in production paths.
    """
    ntasks = len(payloads)
    if ntasks == 0:
        return []
    registry = obs.active()
    results: list = [None] * ntasks
    pending = list(range(ntasks))
    reasons: dict[int, str] = {}
    hang_seconds = (
        fault_plan.hang_seconds if fault_plan is not None else 60.0
    )
    try:
        ctx = _fork_context()
        why = "fork start method unavailable on this platform"
    except Exception as exc:  # no multiprocessing at all
        ctx = None
        why = f"pool unavailable ({exc})"
    if ctx is None:
        _warn_degraded(stage, f"{why}; running serially")
        if registry is not None:
            registry.counter_add("faults.pool_fallbacks", ntasks)
        return [func(p) for p in payloads]
    attempt = 0
    while pending and attempt <= retries:
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
            if registry is not None:
                registry.counter_add("faults.retries", len(pending))
        try:
            wave_results, failures = _run_wave(
                ctx, func, payloads, pending, workers, timeout,
                fault_plan, stage, attempt, hang_seconds,
            )
        except _PoolUnavailable as exc:
            _warn_degraded(
                stage, f"pool unavailable ({exc}); running serially"
            )
            if registry is not None:
                registry.counter_add("faults.pool_fallbacks", len(pending))
            for i in pending:
                results[i] = func(payloads[i])
            return results
        for i, value in wave_results.items():
            results[i] = value
        pending = [i for i, _reason in failures]
        reasons = dict(failures)
        if pending and registry is not None:
            registry.counter_add("faults.task_failures", len(failures))
        attempt += 1
    if pending:
        detail = "; ".join(
            f"task {i}: {reasons[i]}" for i in pending if i in reasons
        )
        _warn_degraded(
            stage,
            f"{len(pending)} pool task(s) failed after {retries} "
            f"retr{'y' if retries == 1 else 'ies'}"
            + (f" ({detail})" if detail else "")
            + "; re-executing serially",
        )
        if registry is not None:
            registry.counter_add("faults.pool_fallbacks", len(pending))
        for i in pending:
            results[i] = func(payloads[i])
    return results
