import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.graphs import (MAX_VERTICES, DomainError, Graph, ParseError, boundary,
                           components, delete_vertices, induced_subgraph, parse_graph,
                           serialize_graph, shortest_odd_cycle, two_coloring)
from sepkit.oracle import FIXTURES, cycle_graph

from strategies import graphs, parse_graph_by_edge_set

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
D4 = FIXTURES["D4"].graph
PP = FIXTURES["PP"].graph


def test_parse_p3():
    g = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
    assert g == P3


def test_parse_rejects_loop():
    with pytest.raises(ParseError) as exc:
        parse_graph("p 2 1\ne 1 1\n")
    assert exc.value.line == 2


def test_parse_c4():
    assert parse_graph("p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n") == C4


def test_parse_errors_name_lines():
    cases = [
        ("p 3 1\ne 1 5\n", 2),          # vertex out of range
        ("p 3 2\ne 1 2\n", 1),          # edge count mismatch reported at header
        ("e 1 2\np 2 1\n", 1),          # edge before header
        ("p 2 1\nq 1 2\n", 2),          # unknown line type
        ("p 2 x\n", 1),                 # non-integer field
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line


def test_parse_refuses_a_vertex_count_above_the_limit():
    # refused at the header, before the parser allocates one set per vertex:
    # allocating first would take hundreds of megabytes before failing
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_graph(f"c one past the limit\np {MAX_VERTICES + 1} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == 2 and f"limit of {MAX_VERTICES}" in str(exc.value)
    assert peak < 2 ** 20


def _random_graph_text(rng):
    """A graph file, often well formed, with the lines a reader must skip or
    refuse mixed in at random."""
    n = rng.choice((0, 1, 2, 3, 5, 8))
    edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 8))] if n else []
    edges = [(u, v) for u, v in edges if u != v]
    lines = [f"p {n} {len(edges)}", *(f"e {u} {v}" for u, v in edges)]
    if edges and rng.random() < 0.3:
        lines.append(lines[1])                     # a duplicate edge line
    if rng.random() < 0.05:
        del lines[0]                               # no header
    noise = [
        "c a comment", "c", "cat 1 2", "  c indented", "c\tp 1 2", "", "   ", "\t",
        f"e {rng.randint(0, n + 1)} {rng.randint(0, n + 1)}",  # in or out of range
        f"e {rng.randint(1, max(n, 1))} {rng.randint(1, max(n, 1))} 3",
        "e 1", "e x 2", "e 1 2.0", "e +1 2", "e 1 1", "e 2 2",
        f"p {n} {len(edges)}", f"p {n + 1} 0", "p 3", "p x 1", "p -1 0", "p 2 -1",
        f"p {MAX_VERTICES + 1} 0", "q 1 2", "E 1 2", "pe 1 2", "ee",
    ]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        lines.insert(rng.randint(0, len(lines)), rng.choice(noise))
    end = rng.choice(("\n", "\n", "\r\n", "\r"))
    return end.join(lines) + rng.choice(("", end))


def test_parse_matches_edge_set_reader():
    rng = random.Random(2027)
    outcomes = {"graph": 0, "error": 0}
    messages = set()
    for _ in range(3000):
        text = _random_graph_text(rng)
        try:
            want = parse_graph_by_edge_set(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_graph(text)
            assert (str(got.value), got.value.line) == (str(exc), exc.line), text
            outcomes["error"] += 1
            messages.add(str(exc).split(": ", 1)[1].split(" ")[0])
        else:
            assert parse_graph(text) == want, text
            outcomes["graph"] += 1
    assert min(outcomes.values()) >= 500, outcomes
    assert len(messages) >= 8, messages


def test_parse_collapses_duplicate_edge_lines():
    g = parse_graph("p 2 2\ne 1 2\ne 2 1\n")
    assert g.m == 1


def test_serialize_roundtrip_sorted():
    text = serialize_graph(PP)
    assert text.splitlines()[0] == "p 6 6"
    assert parse_graph(text) == PP


def test_simple_graph_invariants():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(2, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.m == 1 and g.adj[1] == (0, 2) or g.adj[1] == (0,)


def test_boundary_examples():
    assert boundary(P3, (0,)) == (1,)
    assert boundary(C4, (0,)) == (1, 3)
    assert boundary(PP, (0, 1, 3)) == (2, 4)


def test_boundary_domain_error():
    with pytest.raises(DomainError):
        boundary(P3, (7,))


def test_components_examples():
    assert components(P3, (1,)) == [(0,), (2,)]
    assert components(C4, ()) == [(0, 1, 2, 3)]
    assert components(PP, (1, 4)) == [(0, 3), (2, 5)]


def test_induced_subgraph_examples():
    sub = induced_subgraph(C4, (1, 3))
    assert sub.graph.m == 0 and sub.graph.n == 2
    sub = induced_subgraph(D4, (1, 3))
    assert sub.graph.edges() == [(0, 1)]
    sub = induced_subgraph(PP, range(6))
    assert sub.graph == PP and sub.orig == tuple(range(6))


def test_two_coloring_examples():
    assert two_coloring(P3) == ((0, 2), (1,))
    assert two_coloring(cycle_graph(3)) is None
    assert two_coloring(C4) == ((0, 2), (1, 3))
    assert two_coloring(cycle_graph(3), (1,)) == ((0,), (2,))
    assert two_coloring(D4, (1,)) == ((0, 2), (3,))
    assert two_coloring(cycle_graph(5), range(5)) == ((), ())
    with pytest.raises(DomainError):
        two_coloring(P3, (3,))


def test_shortest_odd_cycle_examples():
    assert shortest_odd_cycle(cycle_graph(3)) == (0, 1, 2)
    c5 = shortest_odd_cycle(cycle_graph(5))
    assert c5 is not None and len(c5) == 5
    chord = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert len(shortest_odd_cycle(chord)) == 3
    assert shortest_odd_cycle(C4) is None


def _odd_cycles_by_enumeration(G):
    """Shortest odd cycle length by DFS enumeration of all simple cycles."""
    best = [None]

    def extend(path, seen):
        if best[0] is not None and len(path) >= best[0]:
            return
        v = path[-1]
        for w in G.adj[v]:
            if w == path[0] and len(path) >= 3 and len(path) % 2 == 1:
                if best[0] is None or len(path) < best[0]:
                    best[0] = len(path)
            elif w > path[0] and w not in seen:
                extend(path + [w], seen | {w})

    for v in range(G.n):
        extend([v], {v})
    return best[0]


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_shortest_odd_cycle_matches_enumeration(G):
    cyc = shortest_odd_cycle(G)
    brute = _odd_cycles_by_enumeration(G)
    if cyc is None:
        assert brute is None
    else:
        assert brute == len(cyc)
        for i, u in enumerate(cyc):
            assert G.has_edge(u, cyc[(i + 1) % len(cyc)])


def test_shortest_odd_cycle_enumeration_to_ten_vertices():
    from strategies import seeded_graphs
    for G, rng in seeded_graphs(60, seed=73, n_lo=4, n_hi=10, ps=(0.2, 0.35, 0.5)):
        cyc = shortest_odd_cycle(G)
        brute = _odd_cycles_by_enumeration(G)
        assert (brute is None) == (cyc is None)
        if cyc is not None:
            assert len(cyc) == brute


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_boundary_properties(G, data):
    members = data.draw(st.lists(st.integers(0, G.n - 1), max_size=G.n))
    X = set(members)
    d = boundary(G, X)
    assert not set(d) & X
    for v in d:
        assert any(w in X for w in G.adj[v])


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_components_partition(G, data):
    removed = set(data.draw(st.lists(st.integers(0, G.n - 1), max_size=G.n)))
    comps = components(G, removed)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == [v for v in range(G.n) if v not in removed]
    index = {v: i for i, comp in enumerate(comps) for v in comp}
    for u, v in G.edges():
        if u in index and v in index:
            assert index[u] == index[v]


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_two_coloring_proper(G):
    col = two_coloring(G)
    if col is None:
        assert shortest_odd_cycle(G) is not None
        return
    B, W = map(set, col)
    assert B | W == set(range(G.n)) and not B & W
    for u, v in G.edges():
        assert (u in B) != (v in B)


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=9), st.data())
def test_two_coloring_in_place_matches_deleted_copy(G, data):
    S = data.draw(st.sets(st.integers(0, G.n - 1)))
    rest = delete_vertices(G, S)
    col = two_coloring(rest.graph)
    want = None if col is None else tuple(rest.map_back(side) for side in col)
    assert two_coloring(G, S) == want


def test_immutability_of_editing_operations():
    before = PP.adj
    induced_subgraph(PP, (0, 1, 2))
    assert PP.adj == before

