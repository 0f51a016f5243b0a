"""Cross-validation of the CFG-based CST builder.

The production CST builder works on the CFG (dominator-based loop
detection, post-dominator joins — the paper's Algorithm 1).  For
structured programs the same tree is derivable directly from the AST by a
much simpler recursion.  This test implements that independent reference
builder and fuzz-compares the two on random structured programs — any
divergence means the CFG pipeline (lowering, dominators, loops, region
walk) mis-handled some shape.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")

from repro.minilang import ast_nodes as A  # noqa: E402
from repro.minilang.builtins import MPI_INTRINSICS, make_classifier  # noqa: E402
from repro.minilang.cfg import build_cfg  # noqa: E402
from repro.minilang.parser import parse  # noqa: E402
from repro.static.cst import BRANCH, CALL, FUNC, LOOP, ROOT, CSTNode  # noqa: E402
from repro.static.intra import build_intra_cst  # noqa: E402


# ---------------------------------------------------------------------------
# Reference builder: straight AST recursion (no CFG involved).
# ---------------------------------------------------------------------------


def _expr_calls(expr, user_funcs):
    """Call leaves in evaluation order (matches the CFG lowering)."""
    out = []

    def walk_expr(e):
        if isinstance(e, (A.IntLit, A.StrLit, A.VarRef)):
            return
        if isinstance(e, A.Index):
            walk_expr(e.index)
            return
        if isinstance(e, A.Unary):
            walk_expr(e.operand)
            return
        if isinstance(e, A.Binary):
            walk_expr(e.left)
            walk_expr(e.right)
            return
        if isinstance(e, A.Call):
            for arg in e.args:
                walk_expr(arg)
            if e.name in MPI_INTRINSICS:
                out.append(CSTNode(kind=CALL, ast_id=e.node_id, name=e.name))
            elif e.name in user_funcs:
                out.append(CSTNode(kind=FUNC, ast_id=e.node_id, name=e.name))
            return

    walk_expr(expr)
    return out


def reference_cst(func: A.FuncDef, user_funcs) -> CSTNode:
    def stmt_nodes(stmt):
        out = []
        if isinstance(stmt, A.VarDecl):
            for e in (stmt.size, stmt.init):
                if e is not None:
                    out.extend(_expr_calls(e, user_funcs))
        elif isinstance(stmt, A.Assign):
            if stmt.index is not None:
                out.extend(_expr_calls(stmt.index, user_funcs))
            out.extend(_expr_calls(stmt.value, user_funcs))
        elif isinstance(stmt, A.ExprStmt):
            out.extend(_expr_calls(stmt.expr, user_funcs))
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                out.extend(_expr_calls(stmt.value, user_funcs))
        elif isinstance(stmt, A.If):
            out.extend(_expr_calls(stmt.cond, user_funcs))
            then_v = CSTNode(kind=BRANCH, ast_id=stmt.node_id, branch_path=0)
            then_v.children = block_nodes(stmt.then_body)
            else_v = CSTNode(kind=BRANCH, ast_id=stmt.node_id, branch_path=1)
            else_v.children = block_nodes(stmt.else_body)
            out.extend([then_v, else_v])
        elif isinstance(stmt, (A.For, A.While)):
            if isinstance(stmt, A.For) and stmt.init is not None:
                out.extend(stmt_nodes(stmt.init))
            loop = CSTNode(kind=LOOP, ast_id=stmt.node_id)
            if stmt.cond is not None:
                loop.children.extend(_expr_calls(stmt.cond, user_funcs))
            loop.children.extend(block_nodes(stmt.body))
            if isinstance(stmt, A.For) and stmt.step is not None:
                loop.children.extend(stmt_nodes(stmt.step))
            out.append(loop)
        return out

    def block_nodes(stmts):
        out = []
        for s in stmts:
            out.extend(stmt_nodes(s))
        return out

    root = CSTNode(kind=ROOT, name=func.name)
    root.children = block_nodes(func.body)
    return root


def shape(node):
    label = (node.kind, node.ast_id, node.name, node.branch_path)
    return (label, tuple(shape(c) for c in node.children))


# ---------------------------------------------------------------------------
# Random structured programs (no early exits, no MPI in loop conditions —
# the traceable subset).
# ---------------------------------------------------------------------------


@st.composite
def structured_main(draw):
    lines = []

    def block(depth, indent):
        pad = "  " * indent
        for _ in range(draw(st.integers(1, 3))):
            kinds = ["mpi", "user", "compute", "expr"]
            if depth < 3:
                kinds += ["if", "ifelse", "for", "while"]
            kind = draw(st.sampled_from(kinds))
            if kind == "mpi":
                op = draw(st.sampled_from(
                    ["mpi_barrier()", "mpi_allreduce(8)",
                     "mpi_send(0, 8, 0)", "mpi_bcast(0, 64)"]
                ))
                lines.append(f"{pad}{op};")
            elif kind == "user":
                lines.append(f"{pad}helper();")
            elif kind == "compute":
                lines.append(f"{pad}compute(1);")
            elif kind == "expr":
                lines.append(f"{pad}x = x + helper() * 2;")
            elif kind == "if":
                lines.append(f"{pad}if (x > {draw(st.integers(0, 5))}) {{")
                block(depth + 1, indent + 1)
                lines.append(f"{pad}}}")
            elif kind == "ifelse":
                lines.append(f"{pad}if (x % 2 == 0) {{")
                block(depth + 1, indent + 1)
                lines.append(f"{pad}}} else {{")
                block(depth + 1, indent + 1)
                lines.append(f"{pad}}}")
            elif kind == "for":
                var = f"i{indent}_{len(lines)}"
                lines.append(
                    f"{pad}for (var {var} = 0; {var} < 2; {var} = {var} + 1) {{"
                )
                block(depth + 1, indent + 1)
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}while (x > 0) {{")
                block(depth + 1, indent + 1)
                lines.append(f"{pad}x = x - 1;")
                lines.append(f"{pad}}}")

    block(0, 1)
    return (
        "func main() {\n  var x = 3;\n" + "\n".join(lines) + "\n}\n"
        "func helper() { return 1; }\n"
    )


class TestCrossValidation:
    @settings(max_examples=120, deadline=None)
    @given(structured_main())
    def test_cfg_builder_matches_ast_reference(self, source):
        program = parse(source)
        user_funcs = set(program.functions)
        cfg = build_cfg(program.functions["main"])
        production = build_intra_cst(cfg, make_classifier(program))
        reference = reference_cst(program.functions["main"], user_funcs)
        assert shape(production) == shape(reference)

    def test_known_tricky_shapes(self):
        sources = [
            # branch directly inside loop body end
            "func main() { for (var i = 0; i < 2; i = i + 1) "
            "{ if (i) { mpi_barrier(); } } }",
            # call in for-init and step positions
            "func main() { var x = 0; for (x = helper(); x < 2; x = x + helper()) "
            "{ mpi_barrier(); } } func helper() { return 1; }",
            # nested if-else chains
            "func main() { if (a) { mpi_barrier(); } else if (b) "
            "{ mpi_allreduce(8); } else { mpi_bcast(0, 8); } }",
            # loop condition with a user call
            "func main() { while (helper() > 0) { mpi_barrier(); } } "
            "func helper() { return 0; }",
        ]
        for source in sources:
            program = parse(source)
            cfg = build_cfg(program.functions["main"])
            production = build_intra_cst(cfg, make_classifier(program))
            reference = reference_cst(
                program.functions["main"], set(program.functions)
            )
            assert shape(production) == shape(reference), source
