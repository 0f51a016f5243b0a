"""Hypothesis strategies generating random *traceable, deadlock-free*
MiniMPI programs.

Deadlock freedom by construction:

* collectives appear only in rank-independent control flow;
* rank-dependent branches contain only self-messages and compute;
* point-to-point exchanges are symmetric pairings (XOR partner) or
  periodic shifts ``(coord ± k) % extent`` along one dimension of a
  1-D, 2-D or 3-D grid of the job's ranks, in two phases (receive from
  the one side while sending to the other, then the reverse);
* helper functions are called from rank-independent positions, and any
  recursion is guarded (depth parameter) with communication before the
  recursive call (the paper's Fig. 8 shape).
"""

from __future__ import annotations

from hypothesis import strategies as st

#: The grids a periodic exchange runs on, per dimension ``(extent,
#: coordinate, rank stride)`` as MiniMPI expressions of ``rank`` and
#: ``size``: an extent of 2 where the job size is even (else 1) below
#: the last dimension, which takes what is left.
_PX = "(2 - size % 2)"
_REST = f"(size / {_PX})"
_PY = f"(2 - {_REST} % 2)"
GRIDS = {
    1: [("size", "rank", "1")],
    2: [(_PX, f"(rank % {_PX})", "1"), (_REST, f"(rank / {_PX})", _PX)],
    3: [
        (_PX, f"(rank % {_PX})", "1"),
        (_PY, f"((rank / {_PX}) % {_PY})", _PX),
        (f"({_REST} / {_PY})", f"(rank / ({_PX} * {_PY}))",
         f"({_PX} * {_PY})"),
    ],
}


def periodic_shift(extent: str, coord: str, stride: str, k: int) -> tuple:
    """The rank deltas ``(up, down)`` of a shift by ``k`` around one
    dimension: ``((coord ± k) mod extent - coord) * stride``."""
    up = f"((({coord} + {k}) % {extent} - {coord}) * {stride})"
    down = (
        f"((({coord} + {extent} - {k} % {extent}) % {extent} - {coord})"
        f" * {stride})"
    )
    return up, down


@st.composite
def program(draw, allow_functions: bool = True, allow_subcomms: bool = False):
    helpers: list[str] = []
    used_helper_kinds: set[str] = set()
    lines: list[str] = []
    depth_budget = 3

    def emit_helper(kind: str) -> str:
        name = f"helper_{kind}"
        if kind in used_helper_kinds:
            return name
        used_helper_kinds.add(kind)
        if kind == "coll":
            helpers.append(
                "func helper_coll(n) {\n"
                "  mpi_allreduce(8 * n);\n"
                "  mpi_bcast(0, 16 * n);\n"
                "}"
            )
        elif kind == "selfmsg":
            helpers.append(
                "func helper_selfmsg(rank) {\n"
                "  mpi_send(rank, 24, 4);\n"
                "  mpi_recv(rank, 24, 4);\n"
                "}"
            )
        elif kind == "rec":
            # Guard-clause recursion, Fig. 8 style (tail form -> exact).
            helpers.append(
                "func helper_rec(n) {\n"
                "  if (n == 0) {\n"
                "    return;\n"
                "  } else {\n"
                "    mpi_bcast(0, 32);\n"
                "    helper_rec(n - 1);\n"
                "  }\n"
                "}"
            )
        return name

    def block(depth: int, indent: int, rank_dependent: bool) -> None:
        pad = "  " * indent
        for _ in range(draw(st.integers(1, 3))):
            choices = ["compute", "selfmsg"]
            if not rank_dependent:
                choices += ["coll", "exchange", "periodic"]
                if allow_functions:
                    choices += ["call"]
                if allow_subcomms:
                    choices += ["subcomm"]
            if depth < depth_budget:
                choices += ["loop", "branch"]
            kind = draw(st.sampled_from(choices))
            if kind == "compute":
                lines.append(f"{pad}compute({draw(st.integers(1, 40))});")
            elif kind == "selfmsg":
                tag = draw(st.integers(0, 3))
                lines.append(f"{pad}mpi_send(rank, 16, {tag});")
                lines.append(f"{pad}mpi_recv(rank, 16, {tag});")
            elif kind == "coll":
                op = draw(st.sampled_from(
                    ["mpi_barrier()", "mpi_allreduce(16)", "mpi_bcast(0, 128)",
                     "mpi_reduce(0, 8)", "mpi_allgather(32)"]
                ))
                lines.append(f"{pad}{op};")
            elif kind == "exchange":
                nbytes = draw(st.integers(1, 8)) * 64
                lines.append(
                    f"{pad}r[0] = mpi_irecv(rank + 1 - 2 * (rank % 2), {nbytes}, 9);"
                )
                lines.append(
                    f"{pad}r[1] = mpi_isend(rank + 1 - 2 * (rank % 2), {nbytes}, 9);"
                )
                lines.append(f"{pad}mpi_waitall(r, 2);")
            elif kind == "periodic":
                nbytes = draw(st.integers(1, 8)) * 32
                dims = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
                extent, coord, stride = dims[draw(
                    st.integers(0, len(dims) - 1)
                )]
                up, down = periodic_shift(
                    extent, coord, stride, draw(st.integers(1, 2))
                )
                for source, dest in ((down, up), (up, down)):
                    lines.append(
                        f"{pad}r[0] = mpi_irecv(rank + {source}, {nbytes}, 11);"
                    )
                    lines.append(
                        f"{pad}r[1] = mpi_isend(rank + {dest}, {nbytes}, 11);"
                    )
                    lines.append(f"{pad}mpi_waitall(r, 2);")
            elif kind == "call":
                hk = draw(st.sampled_from(["coll", "selfmsg", "rec"]))
                name = emit_helper(hk)
                arg = {
                    "coll": str(draw(st.integers(1, 4))),
                    "selfmsg": "rank",
                    "rec": str(draw(st.integers(0, 4))),
                }[hk]
                lines.append(f"{pad}{name}({arg});")
            elif kind == "subcomm":
                mod = draw(st.sampled_from([2, 4]))
                var = f"sc{len(lines)}"
                lines.append(
                    f"{pad}var {var} = mpi_comm_split(0, rank % {mod}, rank);"
                )
                lines.append(f"{pad}mpi_allreduce_on({var}, 64);")
            elif kind == "loop":
                count = draw(st.integers(0, 4))
                var = f"i{indent}_{len(lines)}"
                lines.append(
                    f"{pad}for (var {var} = 0; {var} < {count}; "
                    f"{var} = {var} + 1) {{"
                )
                block(depth + 1, indent + 1, rank_dependent)
                lines.append(f"{pad}}}")
            else:  # branch
                cond = draw(st.sampled_from(
                    ["rank % 2 == 0", "rank < size / 2", "rank == 0", "1", "0"]
                ))
                dependent = cond not in ("1", "0")
                has_else = draw(st.booleans())
                lines.append(f"{pad}if ({cond}) {{")
                block(depth + 1, indent + 1, rank_dependent or dependent)
                if has_else:
                    lines.append(f"{pad}}} else {{")
                    block(depth + 1, indent + 1, rank_dependent or dependent)
                lines.append(f"{pad}}}")

    block(0, 1, rank_dependent=False)
    body = "\n".join(lines)
    header = "\n".join(helpers)
    return (
        f"{header}\n"
        "func main() {\n"
        "  var rank = mpi_comm_rank();\n"
        "  var size = mpi_comm_size();\n"
        "  var r[2];\n"
        f"{body}\n"
        "}\n"
    )
