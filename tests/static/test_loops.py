"""Natural-loop detection tests."""

from repro.minilang.cfg import build_cfg
from repro.minilang.parser import parse
from repro.static.loops import find_back_edges, natural_loops


def cfg_of(body: str):
    return build_cfg(parse(f"func main() {{ {body} }}").functions["main"])


class TestBackEdges:
    def test_straight_line_has_none(self):
        assert find_back_edges(cfg_of("a(); b();")) == []

    def test_single_loop_one_back_edge(self):
        cfg = cfg_of("while (x) { a(); }")
        edges = find_back_edges(cfg)
        assert len(edges) == 1
        tail, header = edges[0]
        assert cfg.blocks[header].kind == "loop_header"

    def test_nested_loops_two_back_edges(self):
        cfg = cfg_of("while (x) { while (y) { a(); } }")
        assert len(find_back_edges(cfg)) == 2

    def test_sequential_loops(self):
        cfg = cfg_of("while (x) { a(); } while (y) { b(); }")
        edges = find_back_edges(cfg)
        assert len(edges) == 2
        assert len({h for _, h in edges}) == 2


class TestNaturalLoops:
    def test_loop_body_contains_header_and_latch(self):
        cfg = cfg_of("for (var i = 0; i < 3; i = i + 1) { a(); }")
        loops = natural_loops(cfg)
        (loop,) = loops.values()
        assert loop.header in loop.body
        latch = [b.bid for b in cfg.blocks.values() if b.kind == "latch"][0]
        assert latch in loop.body

    def test_loop_body_excludes_exit(self):
        cfg = cfg_of("while (x) { a(); } b();")
        (loop,) = natural_loops(cfg).values()
        # blocks holding b() must be outside
        for bid, block in cfg.blocks.items():
            if any(i.name == "b" for i in block.invocations):
                assert bid not in loop.body

    def test_continue_merges_into_one_loop(self):
        cfg = cfg_of("while (x) { if (y) { continue; } a(); }")
        loops = natural_loops(cfg)
        assert len(loops) == 1
        (loop,) = loops.values()
        assert len(loop.back_edges) >= 1

    def test_loop_carries_ast_id(self):
        cfg = cfg_of("while (x) { a(); }")
        (loop,) = natural_loops(cfg).values()
        assert loop.ast_id is not None


class TestNesting:
    """Loop A encloses loop B iff B's header lies in A's body: the
    bodies of nested loops form a chain of strict subsets."""

    def test_inner_loop_parent_is_outer(self):
        cfg = cfg_of("while (x) { while (y) { a(); } }")
        inner, outer = sorted(natural_loops(cfg).values(), key=lambda l: len(l.body))
        assert inner.header in outer.body
        assert outer.header not in inner.body
        assert inner.body < outer.body

    def test_triple_nesting_chain(self):
        cfg = cfg_of(
            "while (x) { while (y) { while (z) { a(); } } }"
        )
        chain = sorted(natural_loops(cfg).values(), key=lambda l: len(l.body))
        assert len(chain) == 3
        assert chain[0].body < chain[1].body < chain[2].body

    def test_siblings_share_parent(self):
        cfg = cfg_of("while (x) { while (y) { a(); } while (z) { b(); } }")
        first, second, outer = sorted(
            natural_loops(cfg).values(), key=lambda l: len(l.body)
        )
        assert first.body < outer.body and second.body < outer.body
        assert not first.body & second.body
