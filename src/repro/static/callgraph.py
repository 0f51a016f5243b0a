"""Program call graph (PCG) construction — paper §III-B.

Nodes are user-defined functions; a directed edge ``f -> g`` exists when
``f`` contains a call site of ``g``.  Recursion shows up as non-trivial
strongly connected components (or self loops), detected with Tarjan's
algorithm; the inter-procedural pass converts those into pseudo-loop
structures (paper Fig. 8, citing Emami et al.).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.minilang import ast_nodes as A
from repro.minilang.ast_nodes import walk


@dataclass
class CallGraph:
    """The program call graph over user-defined functions."""

    edges: dict[str, list[str]] = field(default_factory=dict)  # caller -> callees (dedup, ordered)
    functions: list[str] = field(default_factory=list)

    def callees(self, name: str) -> list[str]:
        return self.edges.get(name, [])

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in reverse topological order
        (callees before callers), via Tarjan's algorithm (iterative)."""
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        result: list[list[str]] = []
        counter = 0

        for start in self.functions:
            if start in index:
                continue
            work: list[tuple[str, int]] = [(start, 0)]
            while work:
                node, child_idx = work[-1]
                if child_idx == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                callees = self.edges.get(node, [])
                advanced = False
                while child_idx < len(callees):
                    callee = callees[child_idx]
                    child_idx += 1
                    if callee not in index:
                        work[-1] = (node, child_idx)
                        work.append((callee, 0))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[node] = min(lowlink[node], index[callee])
                if advanced:
                    continue
                work[-1] = (node, child_idx)
                if child_idx >= len(callees):
                    work.pop()
                    if lowlink[node] == index[node]:
                        component: list[str] = []
                        while True:
                            w = stack.pop()
                            on_stack.discard(w)
                            component.append(w)
                            if w == node:
                                break
                        result.append(component)
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result

    def postorder(self, root: str = "main") -> list[str]:
        """Functions in post-order from ``root`` (callees first), each SCC
        emitted as a unit.  Functions unreachable from ``root`` are appended
        at the end (they still get analysed, matching whole-program mode)."""
        order: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            for callee in self.edges.get(name, []):
                visit(callee)
            order.append(name)

        if root in set(self.functions):
            visit(root)
        for name in self.functions:
            visit(name)
        return order


def build_call_graph(program: A.Program) -> CallGraph:
    """Construct the PCG of a MiniMPI program."""
    user = set(program.functions)
    graph = CallGraph(functions=list(program.functions))
    for name, func in program.functions.items():
        callees: list[str] = []
        for node in walk(func):
            if isinstance(node, A.Call) and node.name in user and node.name not in callees:
                callees.append(node.name)
        graph.edges[name] = callees
    return graph
