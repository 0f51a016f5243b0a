"""Dominator analysis tests, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minilang.cfg import build_cfg
from repro.minilang.parser import parse
from repro.static.dominators import (
    dominates,
    immediate_dominators,
    immediate_post_dominators,
)


def cfg_of(body: str):
    return build_cfg(parse(f"func main() {{ {body} }}").functions["main"])


def nx_idoms(cfg):
    g = nx.DiGraph()
    g.add_nodes_from(cfg.blocks)
    for b in cfg.blocks.values():
        for s in b.succs:
            g.add_edge(b.bid, s)
    idoms = dict(nx.immediate_dominators(g, cfg.entry))
    idoms[cfg.entry] = cfg.entry  # some nx versions omit the root self-map
    return idoms


BODIES = [
    "a();",
    "if (x) { a(); }",
    "if (x) { a(); } else { b(); } c();",
    "for (var i = 0; i < 3; i = i + 1) { a(); }",
    "while (x) { if (y) { a(); } else { b(); } }",
    "for (;x;) { while (y) { a(); } } b();",
    "if (x) { return; } a();",
    "while (1) { if (x) { break; } if (y) { continue; } a(); } b();",
    "if (a) { if (b) { c(); } else { d(); } } else { e(); }",
    "for (var i = 0; i < 2; i = i + 1) { for (var j = 0; j < 2; j = j + 1) "
    "{ for (var k = 0; k < 2; k = k + 1) { f(); } } }",
]


class TestAgainstNetworkx:
    @pytest.mark.parametrize("body", BODIES)
    def test_idoms_match_networkx(self, body):
        cfg = cfg_of(body)
        ours = immediate_dominators(cfg)
        theirs = nx_idoms(cfg)
        assert ours == dict(theirs)


class TestProperties:
    def test_entry_dominates_everything(self):
        cfg = cfg_of(BODIES[4])
        idom = immediate_dominators(cfg)
        for bid in idom:
            assert dominates(idom, cfg.entry, bid)

    def test_dominates_is_reflexive(self):
        cfg = cfg_of(BODIES[2])
        idom = immediate_dominators(cfg)
        for bid in idom:
            assert dominates(idom, bid, bid)

    def test_loop_header_dominates_body(self):
        cfg = cfg_of("for (var i = 0; i < 3; i = i + 1) { a(); }")
        idom = immediate_dominators(cfg)
        (header,) = [b.bid for b in cfg.blocks.values() if b.kind == "loop_header"]
        latch = [b.bid for b in cfg.blocks.values() if b.kind == "latch"][0]
        assert dominates(idom, header, latch)

    def test_dominator_tree_children(self):
        cfg = cfg_of("if (x) { a(); } else { b(); } c();")
        idom = immediate_dominators(cfg)
        # ``idom`` is the tree's parent map: the root is its own parent,
        # every other node has one other parent that dominates it.
        assert [b for b, p in idom.items() if b == p] == [cfg.entry]
        for bid, parent in idom.items():
            assert dominates(idom, parent, bid)


class TestPostDominators:
    def test_exit_post_dominates_all(self):
        cfg = cfg_of("if (x) { a(); } else { b(); } c();")
        ipdom = immediate_post_dominators(cfg)
        for bid in ipdom:
            assert dominates(ipdom, cfg.exit, bid)

    def test_join_post_dominates_branch(self):
        cfg = cfg_of("if (x) { a(); } else { b(); } c();")
        ipdom = immediate_post_dominators(cfg)
        (branch,) = [b.bid for b in cfg.blocks.values() if b.kind == "branch"]
        join = ipdom[branch]
        assert cfg.blocks[join].kind in ("join", "exit")


@st.composite
def random_body(draw, depth=0):
    """Random structured MiniMPI statement lists (for dominator fuzzing)."""
    n = draw(st.integers(1, 3))
    parts = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["call", "if", "ifelse", "for", "while"] if depth < 2 else ["call"]
        ))
        if kind == "call":
            parts.append("a();")
        elif kind == "if":
            parts.append("if (x) { " + draw(random_body(depth + 1)) + " }")
        elif kind == "ifelse":
            parts.append(
                "if (x) { " + draw(random_body(depth + 1)) + " } else { "
                + draw(random_body(depth + 1)) + " }"
            )
        elif kind == "for":
            parts.append(
                "for (var i = 0; i < 2; i = i + 1) { "
                + draw(random_body(depth + 1)) + " }"
            )
        else:
            parts.append("while (x) { " + draw(random_body(depth + 1)) + " }")
    return " ".join(parts)


class TestFuzzAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(random_body())
    def test_random_programs_match_networkx(self, body):
        cfg = cfg_of(body)
        assert immediate_dominators(cfg) == dict(nx_idoms(cfg))
