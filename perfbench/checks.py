"""Answer and witness checks for one CLI result.

The answer is compared with the stored expected answer, and separator
unions (``exact-c``) are compared exactly. Witness bytes are not compared,
since a later version may return a different valid witness: every witness
is re-verified from the original graph with public ``sepkit.graphs``
primitives only.
"""

from __future__ import annotations

import itertools
from typing import Optional

from sepkit.graphs import Graph, components, induced_subgraph, two_coloring


def _component_of(G: Graph, removed) -> dict[int, int]:
    comp_of = {}
    for i, comp in enumerate(components(G, removed)):
        for v in comp:
            comp_of[v] = i
    return comp_of


def _separated(comp_of: dict[int, int], a: int, b: int) -> bool:
    return a not in comp_of or b not in comp_of or comp_of[a] != comp_of[b]


def in_class(H: Graph, cls: str) -> bool:
    if cls == "any":
        return True
    if cls == "edgeless":
        return H.m == 0
    if cls == "forest":
        return H.m == H.n - len(components(H))
    if cls == "bipartite":
        return two_coloring(H) is not None
    if cls.startswith("maxdeg:"):
        bound = int(cls.split(":", 1)[1])
        return all(H.degree(v) <= bound for v in range(H.n))
    raise ValueError(f"benchmark has no membership check for class {cls!r}")


def _independent(G: Graph, S) -> bool:
    return not any(G.has_edge(u, v) for u, v in itertools.combinations(S, 2))


def _bipartite_without(G: Graph, S) -> bool:
    removed = set(S)
    rest = induced_subgraph(G, [v for v in range(G.n) if v not in removed])
    return two_coloring(rest.graph) is not None


def _vertex_set(G: Graph, ids) -> Optional[tuple[int, ...]]:
    """0-based sorted vertex set from 1-based CLI ids, or None if malformed."""
    if not isinstance(ids, list) or not all(isinstance(v, int) for v in ids):
        return None
    S = tuple(sorted(v - 1 for v in ids))
    if len(set(S)) != len(S) or (S and (S[0] < 0 or S[-1] >= G.n)):
        return None
    return S


def check(inst, doc: dict, expected: dict, G: Graph, label: list[int]) -> Optional[str]:
    """None when ``doc`` is a correct answer to ``inst`` on the relabelled
    graph ``G``; otherwise a one-line reason."""
    answer, witness = doc.get("answer"), doc.get("witness")
    if answer != expected["answer"]:
        return f"answer {answer!r}, expected {expected['answer']!r}"
    if inst.command == "exact-c":
        want = sorted(label[v] + 1 for v in expected["union"])
        return None if witness == want else f"union {witness}, expected {want}"
    if answer == "NO":
        return None if witness is None else "NO answer with a witness"

    k = inst.k
    S = _vertex_set(G, witness)
    if S is None:
        return f"malformed witness {witness!r}"
    if inst.command == "exact-stable-bip":
        if len(S) != k:
            return f"witness size {len(S)} differs from k={k}"
    elif len(S) > k:
        return f"witness size {len(S)} exceeds k={k}"

    if inst.command in ("gmincut", "stable-cut", "multicut"):
        cls = "edgeless" if inst.command == "stable-cut" else inst.cls
        if inst.command == "multicut":
            cut = [(label[a], label[b]) for a, b in inst.cut]
            uncut = [(label[a], label[b]) for a, b in inst.uncut]
        else:
            cut, uncut = [(label[inst.s], label[inst.t])], []
        terminals = {v for pair in cut + uncut for v in pair}
        if terminals & set(S):
            return "witness contains a terminal"
        comp_of = _component_of(G, S)
        if not all(_separated(comp_of, a, b) for a, b in cut):
            return "a cut pair stays connected"
        if any(_separated(comp_of, a, b) for a, b in uncut):
            return "an uncut pair is disconnected"
        if not in_class(induced_subgraph(G, S).graph, cls):
            return f"deleted set does not induce a member of {cls}"
        return None

    if inst.command in ("stable-bip", "exact-stable-bip") and not _independent(G, S):
        return "deleted set is not independent"
    if not _bipartite_without(G, S):
        return "graph minus the witness is not bipartite"
    return None
