"""Compiled interpreter for MiniMPI programs.

Each function of a :class:`~repro.minilang.ast_nodes.Program` is
compiled once into nested Python closures, and the result is cached on
the program: one variant that emits the instrumentation markers and one
that does not (and, for each, one that counts steps when a run sets
``max_steps``).  Everything a statement would otherwise re-derive at
every execution is settled at compile time:

* the node's kind picks the closure, so no ``isinstance`` chain runs;
* whether code can block: only a statement or expression that can reach
  an MPI intrinsic, or a user function that can, compiles to a
  generator, so a blocking MPI operation deep inside an expression still
  suspends the whole rank at the same points, while call-free code runs
  as plain calls;
* the instrumentation plan: an ``if`` or loop that survived CST pruning
  compiles with its ``PMPI_COMM_Structure`` / ``..._Exit`` markers (loop
  push/iter/pop, branch enter/exit) and a function with a recursion
  pseudo-loop with its enter/exit, every other node without any
  (selective bracketing), each marker as its opcode tuple, built once
  and handed to the rank's emitter at every execution;
* each MPI intrinsic's :class:`~repro.mpisim.comm.RankComm` handler.

An :class:`Interpreter` runs one rank: it holds the rank's state (its
communicator, its emitter, the step and call-depth counters) and drives
the compiled ``main``.  The observable behaviour — the item stream,
``print`` output and every :class:`InterpError` — is that of the
tree-walker in ``tests/spec_interp.py``, which the tests run against
this one.

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

from dataclasses import dataclass, field
from typing import Iterator

from repro.mpisim import pmpi
from repro.mpisim.comm import RankComm

from . import ast_nodes as A
from .builtins import COMPUTE_BUILTINS, MPI_INTRINSICS, MPI_QUERIES


class InterpError(Exception):
    """Runtime error inside a MiniMPI program."""


@dataclass(frozen=True)
class InstrumentationPlan:
    """What the static phase tells the interpreter to instrument."""

    instrumented_ast_ids: frozenset[int] = frozenset()
    recursive_pseudo: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_static(cls, result) -> "InstrumentationPlan":
        return cls(
            instrumented_ast_ids=result.instrumented_ast_ids,
            recursive_pseudo=dict(result.recursive_pseudo),
        )


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


#: Deepest MiniMPI call nesting a rank may reach.
MAX_CALL_DEPTH = 100

#: intrinsic name -> the ``RankComm`` generator method that executes it
_HANDLERS = {
    name: getattr(RankComm, "_op_" + name[4:]) for name in MPI_INTRINSICS
}


def _cdiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _cmod(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("modulo by zero")
    return a - _cdiv(a, b) * b


class _Rank:
    """One rank's run-time state; every compiled closure takes it."""

    __slots__ = (
        "comm", "defines", "output", "steps", "max_steps", "depth", "emit",
    )


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
        markers = plan is not None and comm.runtime.tracer.wants_markers
        self._functions = _compiled(
            program, plan if markers else None, max_steps is not None
        )
        st = self._state = _Rank()
        st.comm = comm
        st.defines = self.defines
        st.output = output
        st.steps = 0
        st.max_steps = max_steps
        st.depth = 0
        st.emit = comm.emit

    def run(self) -> Iterator[None]:
        """Top-level generator: execute ``main()``."""
        entry = self._functions.get("main")
        if entry is None:
            raise InterpError("call to undefined function 'main'")
        invoke, blocks = entry
        if blocks:
            return (yield from invoke(self._state, []))
        return invoke(self._state, [])


def _compiled(
    program: A.Program, plan: InstrumentationPlan | None, counting: bool
) -> dict:
    """``program``'s functions as ``name -> (invoke, blocks)``, compiled
    with ``plan``'s markers (none when ``plan`` is None) and with step
    counting when ``counting``; built on first use and kept on the
    program.  ``invoke(state, args)`` runs the function; when ``blocks``
    it returns a generator to drive with ``yield from``."""
    cache = program.__dict__.setdefault("_interp_code", {})
    key = (id(plan), counting)
    hit = cache.get(key)
    if hit is None or hit[0] is not plan:
        hit = cache[key] = (plan, _Compiler(program, plan, counting).table)
    return hit[1]


def _blocking_functions(program: A.Program) -> frozenset[str]:
    """User functions whose execution can reach an MPI intrinsic."""
    functions = program.functions
    callees = {
        name: {n.name for n in A.walk(f) if isinstance(n, A.Call)}
        for name, f in functions.items()
    }
    blocking: set[str] = set()
    grew = True
    while grew:
        grew = False
        for name, names in callees.items():
            if name not in blocking and any(
                (c in blocking) if c in functions else (c in MPI_INTRINSICS)
                for c in names
            ):
                blocking.add(name)
                grew = True
    return frozenset(blocking)


def _nothing(fr, st):
    return None


def _raiser(message: str):
    """A two-argument function raising ``InterpError(message)``: a
    compiled closure, or a callee's ``apply``, that always fails."""
    def fail(a, b):
        raise InterpError(message)
    return fail


def _clean(fn, gen):
    """``fn`` with its result dropped: a block that cannot ``return``
    may hand back an expression's value, which a caller that looks for
    a return box must not see."""
    if gen:
        def run(fr, st):
            yield from fn(fr, st)
    else:
        def run(fr, st):
            fn(fr, st)
    return run


def _lookup(name: str, line: int):
    """The reader of variable ``name``: the frame, then the defines."""
    def var(fr, st):
        if name in fr:
            return fr[name]
        defines = st.defines
        if name in defines:
            return defines[name]
        raise InterpError(f"undefined variable {name!r} at line {line}")
    return var


def _check_index(name: str, line: int, arr, index) -> None:
    """Raise unless ``arr[index]`` names an element of an array."""
    if not isinstance(arr, list):
        raise InterpError(f"{name!r} is not an array at line {line}")
    if not (0 <= index < len(arr)):
        raise InterpError(
            f"index {index} out of bounds for {name!r}"
            f"[{len(arr)}] at line {line}"
        )


def _tick(st: _Rank, line: int) -> None:
    st.steps += 1
    if st.steps > st.max_steps:
        raise InterpError(f"step limit {st.max_steps} exceeded at line {line}")


def _ticked(fn, line: int):
    """``fn`` counting one step first (the step-limited variant)."""
    def ticked(fr, st):
        _tick(st, line)
        return fn(fr, st)
    return ticked


def _binop(op: str, line: int):
    """``op`` as a function of its two evaluated operands."""
    if op == "+":
        return lambda a, b: a + b
    if op == "-":
        return lambda a, b: a - b
    if op == "*":
        return lambda a, b: a * b
    if op == "/":
        return _cdiv
    if op == "%":
        return _cmod
    if op == "==":
        return lambda a, b: 1 if a == b else 0
    if op == "!=":
        return lambda a, b: 1 if a != b else 0
    if op == "<":
        return lambda a, b: 1 if a < b else 0
    if op == "<=":
        return lambda a, b: 1 if a <= b else 0
    if op == ">":
        return lambda a, b: 1 if a > b else 0
    if op == ">=":
        return lambda a, b: 1 if a >= b else 0
    if op == "&&":
        return lambda a, b: 1 if (a and b) else 0
    if op == "||":
        return lambda a, b: 1 if (a or b) else 0

    def unknown(a, b):
        raise InterpError(f"unknown operator {op!r} at line {line}")
    return unknown


def _query(st: _Rank, name: str, args: list):
    comm = st.comm
    if name == "mpi_comm_rank":
        return comm.rank
    if name == "mpi_comm_size":
        return comm.runtime.nprocs
    if name == "mpi_comm_rank_on":
        return comm.runtime.collectives.comms.comm_rank(args[0], comm.rank)
    if name == "mpi_comm_size_on":
        return comm.runtime.collectives.comms.size(args[0])
    if name == "mpi_wtime":
        return int(comm.clock)
    raise InterpError(f"unknown query {name!r}")


def _compute_builtin(st: _Rank, name: str, args: list, line: int):
    if name == "compute":
        (us,) = args
        if us < 0:
            raise InterpError(f"compute() with negative time at line {line}")
        st.comm.clock += us
        return 0
    if name == "print":
        if st.output is not None:
            st.output.append(" ".join(str(a) for a in args))
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


class _Compiler:
    """Compiles every function of one program for one variant.

    ``expr`` returns ``(fn, gen)``; ``stmt`` and ``block`` return
    ``(fn, gen, mayret)``.  ``fn(fr, st)`` takes the frame dict and the
    rank state.  When ``gen``, calling ``fn`` returns an iterator to
    drive with ``yield from`` (a generator, or an MPI handler's
    generator handed back as is).  When ``mayret``, a statement's ``fn``
    returns ``None``, or ``(value,)`` once a ``return`` executed;
    otherwise its result means nothing.
    """

    def __init__(self, program: A.Program, plan, counting: bool) -> None:
        self.functions = program.functions
        self.marked = plan.instrumented_ast_ids if plan is not None else ()
        self.pseudo = plan.recursive_pseudo if plan is not None else {}
        self.counting = counting
        self.blocking = _blocking_functions(program)
        self.table: dict = {}
        for name, fdef in program.functions.items():
            self.table[name] = (self.function(fdef), name in self.blocking)

    def function(self, fdef: A.FuncDef):
        name, params = fdef.name, tuple(fdef.params)
        nparams = len(params)
        pseudo = self.pseudo.get(name)
        if pseudo is not None:
            enter_item = (pmpi.OP_RECURSE_ENTER, pseudo)
            exit_item = (pmpi.OP_RECURSE_EXIT, pseudo)
        body, gen, mayret = self.block(fdef.body)

        def enter(st, args):
            if len(args) != nparams:
                raise InterpError(
                    f"{name}() takes {nparams} argument(s), got {len(args)}"
                )
            st.depth += 1
            if st.depth > MAX_CALL_DEPTH:
                raise InterpError(f"call depth limit exceeded in {name}()")
            if pseudo is not None:
                st.emit(enter_item)
            return dict(zip(params, args))

        def leave(st):
            if pseudo is not None:
                st.emit(exit_item)
            st.depth -= 1

        if gen:
            def invoke(st, args):
                fr = enter(st, args)
                try:
                    r = yield from body(fr, st)
                    return r[0] if mayret and r is not None else 0
                finally:
                    leave(st)
            return invoke

        def invoke(st, args):
            fr = enter(st, args)
            try:
                r = body(fr, st)
                return r[0] if mayret and r is not None else 0
            finally:
                leave(st)
        return invoke

    # -- statements -----------------------------------------------------

    def block(self, stmts: list[A.Stmt]):
        steps = [self.stmt(s) for s in stmts]
        if not steps:
            return _nothing, False, False
        if len(steps) == 1:
            return steps[0]
        gen = any(g for _, g, _ in steps)
        mayret = any(m for _, _, m in steps)
        if gen:
            def block(fr, st):
                for fn, g, m in steps:
                    r = (yield from fn(fr, st)) if g else fn(fr, st)
                    if m and r is not None:
                        return r
            return block, True, mayret

        def block(fr, st):
            for fn, _, m in steps:
                r = fn(fr, st)
                if m and r is not None:
                    return r
        return block, False, mayret

    def stmt(self, stmt: A.Stmt):
        fn, gen, mayret = self._stmt(stmt)
        if self.counting:
            fn = _ticked(fn, stmt.line)
        return fn, gen, mayret

    def _stmt(self, stmt: A.Stmt):
        if isinstance(stmt, A.Assign):
            return self.assign(stmt)
        if isinstance(stmt, A.ExprStmt):
            fn, gen = self.expr(stmt.expr)
            return fn, gen, False
        if isinstance(stmt, A.VarDecl):
            return self.vardecl(stmt)
        if isinstance(stmt, A.Return):
            return self.ret(stmt)
        if isinstance(stmt, A.Break):
            def brk(fr, st):
                raise _Break()
            return brk, False, False
        if isinstance(stmt, A.Continue):
            def cont(fr, st):
                raise _Continue()
            return cont, False, False
        if isinstance(stmt, A.If):
            return self.if_(stmt)
        if isinstance(stmt, (A.For, A.While)):
            return self.loop(stmt)
        return _raiser(f"unhandled statement {type(stmt).__name__}"), False, False

    def assign(self, stmt: A.Assign):
        name, line = stmt.name, stmt.line
        value, vgen = self.expr(stmt.value)
        if stmt.index is None:
            if vgen:
                def assign(fr, st):
                    fr[name] = yield from value(fr, st)
                return assign, True, False

            def assign(fr, st):
                fr[name] = value(fr, st)
            return assign, False, False
        index, igen = self.expr(stmt.index)
        load = _lookup(name, line)

        def store(fr, st, v, i):
            arr = load(fr, st)
            _check_index(name, line, arr, i)
            arr[i] = v

        if vgen or igen:
            def assign(fr, st):
                v = (yield from value(fr, st)) if vgen else value(fr, st)
                i = (yield from index(fr, st)) if igen else index(fr, st)
                store(fr, st, v, i)
            return assign, True, False

        def assign(fr, st):
            store(fr, st, value(fr, st), index(fr, st))
        return assign, False, False

    def vardecl(self, stmt: A.VarDecl):
        name, line = stmt.name, stmt.line
        if stmt.size is not None:
            size_of, gen = self.expr(stmt.size)

            def alloc(fr, size):
                if not isinstance(size, int) or size < 0:
                    raise InterpError(f"bad array size {size!r} at line {line}")
                fr[name] = [0] * size

            if gen:
                def decl(fr, st):
                    alloc(fr, (yield from size_of(fr, st)))
                return decl, True, False
            return (lambda fr, st: alloc(fr, size_of(fr, st))), False, False
        if stmt.init is None:
            def decl(fr, st):
                fr[name] = 0
            return decl, False, False
        init, gen = self.expr(stmt.init)
        if gen:
            def decl(fr, st):
                fr[name] = yield from init(fr, st)
            return decl, True, False

        def decl(fr, st):
            fr[name] = init(fr, st)
        return decl, False, False

    def ret(self, stmt: A.Return):
        if stmt.value is None:
            return (lambda fr, st: (0,)), False, True
        value, gen = self.expr(stmt.value)
        if gen:
            def ret(fr, st):
                return ((yield from value(fr, st)),)
            return ret, True, True
        return (lambda fr, st: (value(fr, st),)), False, True

    def if_(self, stmt: A.If):
        cond, cgen = self.expr(stmt.cond)
        then, tgen, tret = self.block(stmt.then_body)
        other, ogen, oret = self.block(stmt.else_body)
        mayret = tret or oret
        if mayret and not tret:
            then = _clean(then, tgen)
        if mayret and not oret:
            other = _clean(other, ogen)
        nid = stmt.node_id
        marked = nid in self.marked
        taken = (pmpi.OP_BRANCH_ENTER, nid, 0)
        not_taken = (pmpi.OP_BRANCH_ENTER, nid, 1)
        leave = (pmpi.OP_BRANCH_EXIT, nid)

        if not (cgen or tgen or ogen):
            def if_(fr, st):
                c = cond(fr, st)
                if marked:
                    st.emit(taken if c else not_taken)
                try:
                    return then(fr, st) if c else other(fr, st)
                finally:
                    if marked:
                        st.emit(leave)
            return if_, False, mayret

        def if_(fr, st):
            c = (yield from cond(fr, st)) if cgen else cond(fr, st)
            if marked:
                st.emit(taken if c else not_taken)
            try:
                if c:
                    return (yield from then(fr, st)) if tgen else then(fr, st)
                return (yield from other(fr, st)) if ogen else other(fr, st)
            finally:
                if marked:
                    st.emit(leave)
        return if_, True, mayret

    def loop(self, stmt: A.For | A.While):
        init = step = cond = None
        igen = sgen = cgen = False
        if isinstance(stmt, A.For):
            if stmt.init is not None:
                init, igen, _ = self.stmt(stmt.init)
            if stmt.step is not None:
                step, sgen, _ = self.stmt(stmt.step)
        if stmt.cond is not None:
            cond, cgen = self.expr(stmt.cond)
        body, bgen, mayret = self.block(stmt.body)
        nid, line = stmt.node_id, stmt.line
        marked = nid in self.marked
        counting = self.counting
        push = (pmpi.OP_LOOP_PUSH, nid)
        next_iter = (pmpi.OP_LOOP_ITER, nid)
        pop = (pmpi.OP_LOOP_POP, nid)

        if not (igen or sgen or cgen or bgen):
            def loop(fr, st):
                if init is not None:
                    init(fr, st)
                if marked:
                    st.emit(push)
                try:
                    while True:
                        if counting:
                            _tick(st, line)
                        if cond is not None and not cond(fr, st):
                            break
                        if marked:
                            st.emit(next_iter)
                        try:
                            r = body(fr, st)
                            if mayret and r is not None:
                                return r
                        except _Break:
                            break
                        except _Continue:
                            pass
                        if step is not None:
                            step(fr, st)
                finally:
                    if marked:
                        st.emit(pop)
            return loop, False, mayret

        def loop(fr, st):
            if init is not None:
                if igen:
                    yield from init(fr, st)
                else:
                    init(fr, st)
            if marked:
                st.emit(push)
            try:
                while True:
                    if counting:
                        _tick(st, line)
                    if cond is not None:
                        c = (yield from cond(fr, st)) if cgen else cond(fr, st)
                        if not c:
                            break
                    if marked:
                        st.emit(next_iter)
                    try:
                        r = (yield from body(fr, st)) if bgen else body(fr, st)
                        if mayret and r is not None:
                            return r
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if step is not None:
                        if sgen:
                            yield from step(fr, st)
                        else:
                            step(fr, st)
            finally:
                if marked:
                    st.emit(pop)
        return loop, True, mayret

    # -- expressions ----------------------------------------------------

    def expr(self, expr: A.Expr):
        if isinstance(expr, A.VarRef):
            return _lookup(expr.name, expr.line), False
        if isinstance(expr, (A.IntLit, A.StrLit)):
            value = expr.value
            return (lambda fr, st: value), False
        if isinstance(expr, A.Binary):
            return self.binary(expr)
        if isinstance(expr, A.Index):
            return self.index(expr)
        if isinstance(expr, A.Unary):
            return self.unary(expr)
        if isinstance(expr, A.Call):
            return self.call(expr)
        return _raiser(f"unhandled expression {type(expr).__name__}"), False

    def binary(self, expr: A.Binary):
        apply = _binop(expr.op, expr.line)
        left, lgen = self.expr(expr.left)
        right, rgen = self.expr(expr.right)
        if not (lgen or rgen):
            return (lambda fr, st: apply(left(fr, st), right(fr, st))), False

        def binary(fr, st):
            a = (yield from left(fr, st)) if lgen else left(fr, st)
            b = (yield from right(fr, st)) if rgen else right(fr, st)
            return apply(a, b)
        return binary, True

    def index(self, expr: A.Index):
        name, line = expr.name, expr.line
        index, gen = self.expr(expr.index)
        load = _lookup(name, line)

        def element(fr, st, i):
            arr = load(fr, st)
            _check_index(name, line, arr, i)
            return arr[i]

        if gen:
            def read(fr, st):
                return element(fr, st, (yield from index(fr, st)))
            return read, True
        return (lambda fr, st: element(fr, st, index(fr, st))), False

    def unary(self, expr: A.Unary):
        operand, gen = self.expr(expr.operand)
        negate = expr.op == "-"
        if gen:
            def unary(fr, st):
                value = yield from operand(fr, st)
                return -value if negate else (0 if value else 1)
            return unary, True
        if negate:
            return (lambda fr, st: -operand(fr, st)), False
        return (lambda fr, st: 0 if operand(fr, st) else 1), False

    def call(self, expr: A.Call):
        items = [self.expr(arg) for arg in expr.args]
        apply, blocks = self.callee(expr.name, expr.line, len(items))
        if not any(gen for _, gen in items):
            fns = [fn for fn, _ in items]
            return (lambda fr, st: apply(st, [f(fr, st) for f in fns])), blocks

        def call(fr, st):
            args = []
            for fn, gen in items:
                args.append((yield from fn(fr, st)) if gen else fn(fr, st))
            if blocks:
                return (yield from apply(st, args))
            return apply(st, args)
        return call, True

    def callee(self, name: str, line: int, nargs: int):
        """``(apply, blocks)`` for a call of ``name`` with ``nargs``
        arguments: ``apply(st, args)`` runs it on the evaluated
        arguments, and hands back a generator when ``blocks``."""
        if name in self.functions:
            table = self.table

            def invoke(st, args):
                return table[name][0](st, args)
            return invoke, name in self.blocking
        if name in MPI_INTRINSICS:
            arity, blocks = MPI_INTRINSICS[name][0], True
            handler = _HANDLERS[name]

            def apply(st, args):
                return handler(st.comm, *args)
        elif name in MPI_QUERIES:
            arity, blocks = MPI_QUERIES[name], False

            def apply(st, args):
                return _query(st, name, args)
        elif name in COMPUTE_BUILTINS:
            return (
                lambda st, args: _compute_builtin(st, name, args, line)
            ), False
        else:
            return _raiser(
                f"call to unknown function {name!r} at line {line}"
            ), False
        if nargs != arity:
            return _raiser(
                f"{name}() takes {arity} argument(s), got {nargs} at line {line}"
            ), blocks
        return apply, blocks
