"""Shared hypothesis strategies, small deterministic samplers and reference
twins."""

import itertools
import random

from hypothesis import strategies as st

import sepkit.problems
from sepkit.graphs import (MAX_VERTICES, Graph, ParseError, delete_vertices, induced_subgraph,
                           two_coloring, vset)
from sepkit.oracle import RandomModel, random_graph
from sepkit.separation import min_vertex_separator


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, picks) if keep])


def grid(rows, cols):
    """The rows x cols grid, vertex i * cols + j at row i, column j."""
    return Graph(rows * cols,
                 [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
                 + [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)])


def walled_grid(rows, cols):
    """The rows x cols grid plus s = rows * cols joined to all of column 0 and
    t = s + 1 joined to all of the last column: (graph, s, t), with a
    minimum s-t separator of size rows."""
    s = rows * cols
    G = grid(rows, cols)
    return Graph(s + 2, [*G.edges(), *((s, i * cols) for i in range(rows)),
                         *((s + 1, i * cols + cols - 1) for i in range(rows))]), s, s + 1


def seeded_graphs(count, seed, n_lo, n_hi, ps=(0.2, 0.3, 0.45)):
    """Deterministic stream of (graph, rng) pairs."""
    for i in range(count):
        s = seed * 1_000_003 + i
        rng = random.Random(s)
        n = rng.randint(n_lo, n_hi)
        yield random_graph(RandomModel(n, rng.choice(ps), s)), rng


def nonadjacent_pair(G, rng):
    pairs = [(i, j) for i in range(G.n) for j in range(i + 1, G.n)
             if not G.has_edge(i, j)]
    return rng.choice(pairs) if pairs else None


def separator_through_by_deletion(G, A, B, v):
    """Reference twin of a vertex's side in ``Residual.sides``, by definition:
    v lies on a minimum A-B separator iff deleting v lowers the minimum
    separator size by one, and the separator closest to A among those
    containing v is then the one closest to A in G minus v, plus v. None when
    v lies on no minimum separator."""
    ell = min_vertex_separator(G, A, B).size
    sub = delete_vertices(G, (v,))
    r = min_vertex_separator(sub.graph, [sub.to_new(a) for a in A],
                             [sub.to_new(b) for b in B])
    if not r.is_finite or r.size != ell - 1:
        return None
    return tuple(sorted(sub.map_back(r.witness) + (v,)))


def odd_cycle_transversal_by_recolouring(G, k):
    """Reference twin of ``odd_cycle_transversal``'s prefix loop: vertex i
    joins unless G[0..i] minus the current transversal, coloured afresh by
    one BFS of G minus the transversal and the later vertices, has an odd
    cycle. The compression steps and the final shrinking loop are
    ``_compress_oct``'s, looked up at call time."""
    current = ()
    for i in range(G.n):
        if two_coloring(G, current + tuple(range(i + 1, G.n))) is not None:
            continue
        candidate = vset(current + (i,))
        if len(candidate) <= k:
            current = candidate
            continue
        prefix = induced_subgraph(G, range(i + 1)).graph
        current = sepkit.problems._compress_oct(prefix, candidate, k)
        if current is None:
            return None
    while current:
        smaller = sepkit.problems._compress_oct(G, current, len(current) - 1)
        if smaller is None:
            break
        current = smaller
    return current


def parse_graph_by_edge_set(text):
    """Reference twin of ``parse_graph``: the two-pass reader that collects
    every edge line into a set and builds the graph from it afterwards, with
    the same checks in the same order."""
    n = None
    declared_m = 0
    header_line = 0
    edge_lines = 0
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative count in header", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"header declares {n} vertices, more than "
                                 f"the limit of {MAX_VERTICES}", lineno)
            header_line = lineno
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(fields) != 3:
                raise ParseError("edge must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-integer endpoint", lineno) from None
            if u == v:
                raise ParseError(f"loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range: {u} {v}", lineno)
            edge_lines += 1
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' header", 1)
    if edge_lines != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges but {edge_lines} edge lines found",
            header_line)
    return Graph(n, edges)
