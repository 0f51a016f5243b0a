"""Program call graph and SCC tests."""

from repro.minilang.parser import parse
from repro.static.callgraph import build_call_graph


def pcg(source: str):
    return build_call_graph(parse(source))


class TestEdges:
    def test_simple_chain(self):
        g = pcg("func main() { a(); } func a() { b(); } func b() { }")
        assert g.callees("main") == ["a"]
        assert g.callees("a") == ["b"]
        assert g.callees("b") == []

    def test_builtins_excluded(self):
        g = pcg("func main() { mpi_barrier(); compute(1); a(); } func a() { }")
        assert g.callees("main") == ["a"]

    def test_duplicate_call_sites_deduplicated(self):
        g = pcg("func main() { a(); a(); a(); } func a() { }")
        assert g.callees("main") == ["a"]

    def test_call_in_expression_found(self):
        g = pcg("func main() { var x = 1 + f(2) * g(3); } func f(a) {} func g(a) {}")
        assert set(g.callees("main")) == {"f", "g"}

    def test_call_in_loop_condition_found(self):
        g = pcg("func main() { while (f()) { } } func f() { return 0; }")
        assert g.callees("main") == ["f"]


class TestSCC:
    def test_acyclic_all_singletons(self):
        g = pcg("func main() { a(); b(); } func a() { } func b() { a(); }")
        assert all(len(c) == 1 for c in g.sccs())

    def test_self_recursion_detected(self):
        g = pcg("func main() { f(1); } func f(n) { if (n) { f(n - 1); } }")
        assert "f" in g.callees("f")
        assert all(len(c) == 1 for c in g.sccs())

    def test_mutual_recursion_detected(self):
        g = pcg(
            "func main() { a(1); } func a(n) { if (n) { b(n); } } "
            "func b(n) { a(n - 1); }"
        )
        assert sorted(map(sorted, g.sccs())) == [["a", "b"], ["main"]]

    def test_non_recursive_not_flagged(self):
        g = pcg("func main() { a(); } func a() { }")
        assert all(len(c) == 1 for c in g.sccs())
        assert not any(name in g.callees(name) for name in ("main", "a"))

    def test_scc_reverse_topological_order(self):
        g = pcg("func main() { a(); } func a() { b(); } func b() { }")
        comps = g.sccs()
        flat = [c[0] for c in comps]
        assert flat.index("b") < flat.index("a") < flat.index("main")


class TestPostorder:
    def test_callees_before_callers(self):
        g = pcg("func main() { a(); b(); } func a() { c(); } func b() { } func c() { }")
        order = g.postorder()
        assert order.index("c") < order.index("a")
        assert order.index("a") < order.index("main")
        assert order.index("b") < order.index("main")

    def test_unreachable_functions_included(self):
        g = pcg("func main() { } func orphan() { }")
        assert set(g.postorder()) == {"main", "orphan"}

    def test_recursion_terminates(self):
        g = pcg("func main() { f(1); } func f(n) { f(n); }")
        assert "f" in g.postorder()
