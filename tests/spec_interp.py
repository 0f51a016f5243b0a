"""Reference tree-walking interpreter for MiniMPI programs: the
executable spec that ``repro.minilang.interp`` is compared against,
beside ``tests/spec_compress.py``, ``tests/spec_merge.py`` and
``tests/spec_replay.py`` for the other layers.

This is the interpreter the product ran before it compiled programs to
closures, kept as it was.  Each rank runs one :class:`Interpreter` as a
generator: evaluation methods are generators chained with
``yield from``, so a blocking MPI operation deep inside an expression
suspends the whole rank until the runtime scheduler resumes it.  Every
execution of a statement re-derives what it needs (the node's kind,
whether it can call, whether it is instrumented, the MPI handler by
name), and every statement runs in its own generator.

When given an :class:`InstrumentationPlan`, it emits the loop, branch
and recursion markers for the control structures the plan names.  It
raises the product's :class:`InterpError`.  Deliberately slow and
obvious — do not optimise it.

Language semantics notes:

* integers are arbitrary-precision; division and modulo truncate toward
  zero (C semantics);
* ``&&`` / ``||`` evaluate **both** operands (no short-circuit), keeping
  the CFG's call ordering exact — MiniMPI programs that want conditional
  calls use ``if``;
* arrays are reference values (needed for ``mpi_waitall(reqs, n)``);
* there is one flat scope per function call; ``var`` re-declaration
  overwrites.
"""

from __future__ import annotations

from typing import Iterator

from repro.minilang import ast_nodes as A
from repro.minilang.builtins import (
    COMPUTE_BUILTINS,
    MPI_INTRINSICS,
    MPI_QUERIES,
)
from repro.minilang.interp import InstrumentationPlan, InterpError
from repro.mpisim.pmpi import (
    OP_BRANCH_ENTER,
    OP_BRANCH_EXIT,
    OP_LOOP_ITER,
    OP_LOOP_POP,
    OP_LOOP_PUSH,
    OP_RECURSE_ENTER,
    OP_RECURSE_EXIT,
)


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


def _has_call(expr: A.Expr) -> bool:
    """True if evaluating ``expr`` may invoke a function (and therefore
    must run through the generator evaluation path).  Cached per node —
    call-free expressions (the vast majority: loop bounds, subscripts,
    conditions) take a plain recursive fast path with no generator
    overhead."""
    cached = getattr(expr, "_mm_has_call", None)
    if cached is not None:
        return cached
    if isinstance(expr, A.Call):
        result = True
    elif isinstance(expr, A.Binary):
        result = _has_call(expr.left) or _has_call(expr.right)
    elif isinstance(expr, A.Unary):
        result = _has_call(expr.operand)
    elif isinstance(expr, A.Index):
        result = _has_call(expr.index)
    else:
        result = False
    expr._mm_has_call = result
    return result


def _cdiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _cmod(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("modulo by zero")
    return a - _cdiv(a, b) * b


class Interpreter:
    """Executes one MiniMPI program on one rank."""

    def __init__(
        self,
        program: A.Program,
        comm,
        defines: dict[str, int] | None = None,
        plan: InstrumentationPlan | None = None,
        output: list[str] | None = None,
        max_steps: int | None = None,
    ) -> None:
        self.program = program
        self.comm = comm
        self.defines = dict(defines or {})
        self.plan = plan
        self.output = output
        self._emit_markers = plan is not None and comm.runtime.tracer.wants_markers
        # Markers go to the rank's emitter as opcode tuples.
        self._emit = comm.emit
        self._steps = 0
        self._max_steps = max_steps
        self._call_depth = 0

    # ------------------------------------------------------------------

    def run(self) -> Iterator[None]:
        """Top-level generator: execute ``main()``."""
        result = yield from self._call_function("main", [])
        return result

    # ------------------------------------------------------------------

    def _tick(self, line: int) -> None:
        self._steps += 1
        if self._max_steps is not None and self._steps > self._max_steps:
            raise InterpError(f"step limit {self._max_steps} exceeded at line {line}")

    def _call_function(self, name: str, args: list):
        func = self.program.functions.get(name)
        if func is None:
            raise InterpError(f"call to undefined function {name!r}")
        if len(args) != len(func.params):
            raise InterpError(
                f"{name}() takes {len(func.params)} argument(s), got {len(args)}"
            )
        self._call_depth += 1
        # Each MiniMPI call level costs several Python frames when the
        # generator chain resumes, so stay well below sys.getrecursionlimit.
        if self._call_depth > 100:
            raise InterpError(f"call depth limit exceeded in {name}()")
        frame = dict(zip(func.params, args))
        pseudo = None
        if self._emit_markers:
            pseudo = self.plan.recursive_pseudo.get(name)
        if pseudo is not None:
            self._emit((OP_RECURSE_ENTER, pseudo))
        try:
            value = 0
            try:
                yield from self._exec_block(func.body, frame)
            except _Return as ret:
                value = ret.value
            return value
        finally:
            if pseudo is not None:
                self._emit((OP_RECURSE_EXIT, pseudo))
            self._call_depth -= 1

    # -- statements -----------------------------------------------------

    def _exec_block(self, stmts: list[A.Stmt], frame: dict):
        for stmt in stmts:
            yield from self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: A.Stmt, frame: dict):
        self._tick(stmt.line)
        if isinstance(stmt, A.Assign):
            if _has_call(stmt.value):
                value = yield from self._eval(stmt.value, frame)
            else:
                value = self._eval_pure(stmt.value, frame)
            if stmt.index is None:
                frame[stmt.name] = value
            else:
                index = (
                    self._eval_pure(stmt.index, frame)
                    if not _has_call(stmt.index)
                    else (yield from self._eval(stmt.index, frame))
                )
                arr = self._lookup(stmt.name, frame, stmt.line)
                self._store_elem(arr, index, value, stmt)
            return
        if isinstance(stmt, A.ExprStmt):
            if _has_call(stmt.expr):
                yield from self._eval(stmt.expr, frame)
            else:
                self._eval_pure(stmt.expr, frame)
            return
        if isinstance(stmt, A.VarDecl):
            if stmt.size is not None:
                size = yield from self._eval(stmt.size, frame)
                if not isinstance(size, int) or size < 0:
                    raise InterpError(f"bad array size {size!r} at line {stmt.line}")
                frame[stmt.name] = [0] * size
            elif stmt.init is not None:
                frame[stmt.name] = yield from self._eval(stmt.init, frame)
            else:
                frame[stmt.name] = 0
            return
        if isinstance(stmt, A.Return):
            value = 0
            if stmt.value is not None:
                value = yield from self._eval(stmt.value, frame)
            raise _Return(value)
        if isinstance(stmt, A.Break):
            raise _Break()
        if isinstance(stmt, A.Continue):
            raise _Continue()
        if isinstance(stmt, A.If):
            yield from self._exec_if(stmt, frame)
            return
        if isinstance(stmt, (A.For, A.While)):
            yield from self._exec_loop(stmt, frame)
            return
        raise InterpError(f"unhandled statement {type(stmt).__name__}")

    def _exec_if(self, stmt: A.If, frame: dict):
        if _has_call(stmt.cond):
            cond = yield from self._eval(stmt.cond, frame)
        else:
            cond = self._eval_pure(stmt.cond, frame)
        path = 0 if cond else 1
        body = stmt.then_body if cond else stmt.else_body
        instrumented = (
            self._emit_markers and stmt.node_id in self.plan.instrumented_ast_ids
        )
        if instrumented:
            self._emit((OP_BRANCH_ENTER, stmt.node_id, path))
        try:
            yield from self._exec_block(body, frame)
        finally:
            if instrumented:
                self._emit((OP_BRANCH_EXIT, stmt.node_id))

    def _exec_loop(self, stmt: A.For | A.While, frame: dict):
        is_for = isinstance(stmt, A.For)
        if is_for and stmt.init is not None:
            yield from self._exec_stmt(stmt.init, frame)
        instrumented = (
            self._emit_markers and stmt.node_id in self.plan.instrumented_ast_ids
        )
        if instrumented:
            self._emit((OP_LOOP_PUSH, stmt.node_id))
        try:
            cond_pure = stmt.cond is not None and not _has_call(stmt.cond)
            while True:
                self._tick(stmt.line)
                if stmt.cond is not None:
                    if cond_pure:
                        cond = self._eval_pure(stmt.cond, frame)
                    else:
                        cond = yield from self._eval(stmt.cond, frame)
                    if not cond:
                        break
                if instrumented:
                    self._emit((OP_LOOP_ITER, stmt.node_id))
                try:
                    yield from self._exec_block(stmt.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if is_for and stmt.step is not None:
                    yield from self._exec_stmt(stmt.step, frame)
        finally:
            if instrumented:
                self._emit((OP_LOOP_POP, stmt.node_id))

    # -- expressions ---------------------------------------------------------

    def _lookup(self, name: str, frame: dict, line: int):
        if name in frame:
            return frame[name]
        if name in self.defines:
            return self.defines[name]
        raise InterpError(f"undefined variable {name!r} at line {line}")

    @staticmethod
    def _store_elem(arr, index, value, stmt: A.Assign) -> None:
        if not isinstance(arr, list):
            raise InterpError(f"{stmt.name!r} is not an array at line {stmt.line}")
        if not (0 <= index < len(arr)):
            raise InterpError(
                f"index {index} out of bounds for {stmt.name!r}"
                f"[{len(arr)}] at line {stmt.line}"
            )
        arr[index] = value

    def _eval(self, expr: A.Expr, frame: dict):
        """Generator evaluation path (needed when calls may block)."""
        if not _has_call(expr):
            return self._eval_pure(expr, frame)
        if isinstance(expr, A.Index):
            index = yield from self._eval(expr.index, frame)
            return self._index_load(expr, index, frame)
        if isinstance(expr, A.Unary):
            value = yield from self._eval(expr.operand, frame)
            if expr.op == "-":
                return -value
            return 0 if value else 1
        if isinstance(expr, A.Binary):
            left = yield from self._eval(expr.left, frame)
            right = yield from self._eval(expr.right, frame)
            return self._binop(expr.op, left, right, expr.line)
        if isinstance(expr, A.Call):
            result = yield from self._eval_call(expr, frame)
            return result
        raise InterpError(f"unhandled expression {type(expr).__name__}")

    def _eval_pure(self, expr: A.Expr, frame: dict):
        """Fast path: plain recursion for call-free expressions."""
        if isinstance(expr, A.VarRef):
            name = expr.name
            if name in frame:
                return frame[name]
            if name in self.defines:
                return self.defines[name]
            raise InterpError(f"undefined variable {name!r} at line {expr.line}")
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.Binary):
            left = self._eval_pure(expr.left, frame)
            right = self._eval_pure(expr.right, frame)
            return self._binop(expr.op, left, right, expr.line)
        if isinstance(expr, A.Index):
            return self._index_load(expr, self._eval_pure(expr.index, frame), frame)
        if isinstance(expr, A.Unary):
            value = self._eval_pure(expr.operand, frame)
            if expr.op == "-":
                return -value
            return 0 if value else 1
        if isinstance(expr, A.StrLit):
            return expr.value
        raise InterpError(f"unhandled expression {type(expr).__name__}")

    def _index_load(self, expr: A.Index, index, frame: dict):
        arr = self._lookup(expr.name, frame, expr.line)
        if not isinstance(arr, list):
            raise InterpError(f"{expr.name!r} is not an array at line {expr.line}")
        if not (0 <= index < len(arr)):
            raise InterpError(
                f"index {index} out of bounds for {expr.name!r}"
                f"[{len(arr)}] at line {expr.line}"
            )
        return arr[index]

    @staticmethod
    def _binop(op: str, left, right, line: int):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return _cdiv(left, right)
        if op == "%":
            return _cmod(left, right)
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "&&":
            return 1 if (left and right) else 0
        if op == "||":
            return 1 if (left or right) else 0
        raise InterpError(f"unknown operator {op!r} at line {line}")

    def _eval_call(self, expr: A.Call, frame: dict):
        name = expr.name
        args = []
        for arg in expr.args:
            if _has_call(arg):
                value = yield from self._eval(arg, frame)
            else:
                value = self._eval_pure(arg, frame)
            args.append(value)
        if name in self.program.functions:
            result = yield from self._call_function(name, args)
            return result
        if name in MPI_INTRINSICS:
            arity = MPI_INTRINSICS[name][0]
            if len(args) != arity:
                raise InterpError(
                    f"{name}() takes {arity} argument(s), got {len(args)} "
                    f"at line {expr.line}"
                )
            result = yield from self.comm.call(name, args)
            return result
        if name in MPI_QUERIES:
            arity = MPI_QUERIES[name]
            if len(args) != arity:
                raise InterpError(
                    f"{name}() takes {arity} argument(s), got {len(args)} "
                    f"at line {expr.line}"
                )
            return self._query(name, args)
        if name in COMPUTE_BUILTINS:
            return self._compute_builtin(name, args, expr.line)
        raise InterpError(f"call to unknown function {name!r} at line {expr.line}")

    def _query(self, name: str, args: list):
        if name == "mpi_comm_rank":
            return self.comm.rank
        if name == "mpi_comm_size":
            return self.comm.runtime.nprocs
        if name == "mpi_comm_rank_on":
            return self.comm.runtime.collectives.comms.comm_rank(
                args[0], self.comm.rank
            )
        if name == "mpi_comm_size_on":
            return self.comm.runtime.collectives.comms.size(args[0])
        if name == "mpi_wtime":
            return int(self.comm.clock)
        raise InterpError(f"unknown query {name!r}")

    def _compute_builtin(self, name: str, args: list, line: int):
        if name == "compute":
            (us,) = args
            if us < 0:
                raise InterpError(f"compute() with negative time at line {line}")
            self.comm.clock += us
            return 0
        if name == "print":
            if self.output is not None:
                self.output.append(" ".join(str(a) for a in args))
            return 0
        if name == "min":
            return min(args[0], args[1])
        if name == "max":
            return max(args[0], args[1])
        if name == "abs":
            return abs(args[0])
        if name == "ilog2":
            (n,) = args
            if n < 1:
                raise InterpError(f"ilog2 of {n} at line {line}")
            return n.bit_length() - 1
        if name == "pow2":
            (n,) = args
            if n < 0 or n > 62:
                raise InterpError(f"pow2 of {n} at line {line}")
            return 1 << n
        if name == "isqrt":
            (n,) = args
            if n < 0:
                raise InterpError(f"isqrt of {n} at line {line}")
            return int(n**0.5 + 1e-9)
        raise InterpError(f"unknown builtin {name!r}")
