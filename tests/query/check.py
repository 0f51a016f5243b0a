"""Engine == replay on one stored trace, with ``repro query``'s
arguments::

    PYTHONPATH=src python -m tests.query.check trace.cyp traffic \\
        --group-by rank_pair

The answer is checked against its replay twin
(:mod:`repro.query.oracle`) under the agreement convention.  Exit 0
when they agree, 1 on a mismatch (the differences on stderr), 2 for a
question the trace cannot answer, 3 on a damaged file.
"""

from __future__ import annotations

import argparse
import sys

from repro import query
from repro.cli import _load_trace

#: Each question's arguments, named as the engine and its twin name them.
ARGS = {
    "traffic": ("group_by", "nprocs"),
    "ordering": ("gid_a", "gid_b", "rank"),
    "rank_profile": ("rank",),
    "critical_leaves": ("k",),
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m tests.query.check")
    p.add_argument("trace")
    p.add_argument("query", choices=[q.replace("_", "-") for q in ARGS])
    p.add_argument("--group-by", default="op",
                   choices=("vertex", "op", "rank_pair"))
    for flag in ("--gid-a", "--gid-b", "--rank", "--nprocs"):
        p.add_argument(flag, type=int, default=None)
    p.add_argument("--top", dest="k", type=int, default=10)
    args = p.parse_args(argv)
    name = args.query.replace("-", "_")
    kwargs = {arg: getattr(args, arg) for arg in ARGS[name]}
    if name == "ordering" and None in kwargs.values():
        p.error("ordering needs --gid-a, --gid-b and --rank")
    merged = _load_trace(args.trace)
    try:
        # The engine first: a replay materialises a loaded tree's records.
        engine = getattr(query, name)(merged, **kwargs)
        replay = getattr(query, f"{name}_via_replay")(merged, **kwargs)
    except query.QueryError as exc:
        print(f"{p.prog} {args.query}: {exc}", file=sys.stderr)
        return 2
    errors = query.agreement_errors(engine, replay, args.query)
    if errors:
        print(f"ORACLE MISMATCH ({len(errors)} differences):",
              file=sys.stderr)
        for e in errors[:20]:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"oracle check: engine == replay ({args.query})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
