"""Metamorphic properties of the solvers on graphs past the oracle's reach
(n = 15..40), where no brute-force answer is available: a vertex relabelling
keeps the answer and the minimum separator size, a pendant vertex hung off a
non-terminal changes nothing, a YES at budget k stays YES at k+1, and two
uncut-pair sets that ask for the same component give the same answer."""

import random

from sepkit.graphs import Graph, components
from sepkit.oracle import RandomModel, random_graph
from sepkit.separation import is_separator, min_vertex_separator
from sepkit.solver import CutConstraints, g_mincut, g_multicut_uncut, parse_class

CLASSES = ("any", "edgeless", "forest", "maxdeg:1")


def _cases(count, seed, terminals, n_hi=40):
    """Seeded sparse graphs with n = 15..n_hi, each with its own rng and
    distinct, pairwise non-adjacent terminals from its largest component."""
    for i in range(count):
        rng = random.Random(seed * 1_000_003 + i)
        n = rng.randint(15, n_hi)
        G = random_graph(RandomModel(n, rng.uniform(2.5, 4.0) / n, rng.getrandbits(32)))
        pool = max(components(G), key=len)
        for _ in range(50):
            terms = rng.sample(pool, terminals)
            if not any(G.has_edge(u, v) for u in terms for v in terms):
                yield G, rng, terms
                break


def _relabel(G, perm):
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def _with_pendant(G, v):
    return Graph(G.n + 1, G.edges() + [(v, G.n)])


def _sep_size(G, s, t):
    return min_vertex_separator(G, (s,), (t,)).size


def test_mincut_metamorphic():
    answers = {True: 0, False: 0}
    for i, (G, rng, (s, t)) in enumerate(_cases(40, seed=61, terminals=2)):
        cls = parse_class(CLASSES[i % len(CLASSES)])
        ell = _sep_size(G, s, t)
        k = min(4, max(0, int(ell) + rng.choice((-1, 0, 1))))
        base = g_mincut(G, s, t, k, cls)
        answers[base is not None] += 1
        if base is not None:
            assert is_separator(G, base, (s,), (t,))
            assert g_mincut(G, s, t, k + 1, cls) is not None

        perm = list(range(G.n))
        rng.shuffle(perm)
        H = _relabel(G, perm)
        assert (g_mincut(H, perm[s], perm[t], k, cls) is None) == (base is None)
        assert _sep_size(H, perm[s], perm[t]) == ell

        v = rng.choice([x for x in range(G.n) if x not in (s, t)])
        P = _with_pendant(G, v)
        assert (g_mincut(P, s, t, k, cls) is None) == (base is None)
        assert _sep_size(P, s, t) == ell
    assert min(answers.values()) >= 8, answers


def test_multicut_metamorphic():
    answers = {True: 0, False: 0}
    for i, (G, rng, (a, b, c, d)) in enumerate(_cases(24, seed=67, terminals=4)):
        cons = CutConstraints(((a, b),), ((c, d),))
        cls = parse_class(CLASSES[i % len(CLASSES)])
        k = rng.randint(1, 3)
        base = g_multicut_uncut(G, cons, k, cls)
        answers[base is not None] += 1
        if base is not None:
            assert g_multicut_uncut(G, cons, k + 1, cls) is not None

        perm = list(range(G.n))
        rng.shuffle(perm)
        moved = CutConstraints(((perm[a], perm[b]),), ((perm[c], perm[d]),))
        assert (g_multicut_uncut(_relabel(G, perm), moved, k, cls) is None) == (base is None)

        v = rng.choice([x for x in range(G.n) if x not in (a, b, c, d)])
        assert (g_multicut_uncut(_with_pendant(G, v), cons, k, cls) is None) == (base is None)
    assert min(answers.values()) >= 5, answers


def test_uncut_pairs_with_a_shared_end_are_interchangeable():
    # {a-b, b-c} and {a-b, a-c} both ask for a, b and c in one component
    answers = {True: 0, False: 0}
    for i, (G, rng, (a, b, c, d)) in enumerate(_cases(30, seed=71, terminals=4, n_hi=30)):
        cls = parse_class(CLASSES[i % len(CLASSES)])
        k = rng.randint(1, 4)
        chain = CutConstraints(((a, d),), ((a, b), (b, c)))
        star = CutConstraints(((a, d),), ((a, b), (a, c)))
        wit = g_multicut_uncut(G, chain, k, cls)
        answers[wit is not None] += 1
        assert (g_multicut_uncut(G, star, k, cls) is None) == (wit is None)
    assert min(answers.values()) >= 5, answers
