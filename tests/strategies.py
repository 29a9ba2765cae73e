"""Shared hypothesis strategies and small deterministic samplers."""

import itertools
import random

from hypothesis import strategies as st

from sepkit.graphs import Graph
from sepkit.oracle import RandomModel, random_graph


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
