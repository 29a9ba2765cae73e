"""Tracing from outside the program: wrappers around sepkit's public
functions that record one span per call.

A span is (name, start, end, parent span index, command id, outcome). The
wrappers are patched into every ``sepkit`` module that binds the function,
because ``from .x import f`` copies the binding and recursive functions such
as ``cover_set`` call themselves through their module global.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


# traced function -> (module that defines it, which is also its layer,
# outcome recorded from the result)
TARGETS = {
    "run_command": ("cli", None),
    "parse_graph": ("graphs", None),
    "shortest_odd_cycle": ("graphs", None),
    "Graph.__init__": ("graphs", None),
    "min_vertex_separator": ("separation", lambda r: r.exceeds_cap),
    "min_separator_containing": ("separation", lambda r: r is not None),
    "minimalize_separator": ("separation", None),
    "build_chain": ("chains", lambda chain: len(chain.sets)),
    "cover_set": ("reduction", None),
    "reduce_instance": ("reduction", lambda ri: ri.gstar.n),
    "decompose": ("treedecomp", None),
    "make_nice": ("treedecomp", lambda nice: len(nice.nodes)),
    "dp_constrained_cut": ("solver", None),
    "g_mincut": ("solver", lambda wit: wit is not None),
    "g_multicut_uncut": ("solver", None),
    "verify_solution": ("solver", None),
    "stable_st_cut": ("problems", None),
    "odd_cycle_transversal": ("problems", None),
    "stable_bipartization": ("problems", None),
    "exact_stable_bipartization": ("problems", None),
    "edge_induced_vertex_cut": ("problems", None),
    "exact_separator_union": ("problems", None),
}
LAYERS = ("cli", "graphs", "separation", "chains", "reduction", "treedecomp",
          "solver", "problems")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.command = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, outcome):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (name, start, clock(), parent, self.command, None)
                raise
            end = clock()
            stack.pop()
            out = None if outcome is None else outcome(result)
            spans[idx] = (name, start, end, parent, self.command, out)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every sepkit module; call once, after importing sepkit."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "sepkit" or key.startswith("sepkit."))]
        graph_cls = sys.modules["sepkit.graphs"].Graph
        init = graph_cls.__init__
        graph_cls.__init__ = self._wrap("Graph.__init__", init, None)
        self._restore.append((graph_cls, "__init__", init))
        wrappers = {}
        for name, (home, outcome) in TARGETS.items():
            if name == "Graph.__init__":
                continue
            fn = getattr(sys.modules[f"sepkit.{home}"], name)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, outcome))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent,
        command id, outcome."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tcommand\toutcome\n")
            for i, (name, start, end, parent, cmd, out) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{cmd}\t{out}\n")


def summarize(spans) -> dict:
    """Self time and call count per traced name, plus the parent-dependent
    counts the per-layer metrics need."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _cmd, _out in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    self_by_command: dict = defaultdict(float)     # (name, command id) -> self time
    calls: Counter = Counter()
    under: Counter = Counter()          # (name, parent name) -> calls
    outcome_sum: Counter = Counter()    # name -> sum of numeric/boolean outcomes
    under_found: Counter = Counter()    # (name, parent name) -> truthy outcomes
    for i, (name, start, end, parent, cmd, out) in enumerate(spans):
        self_s[name] += end - start - child[i]
        self_by_command[(name, cmd)] += end - start - child[i]
        calls[name] += 1
        pname = spans[parent][0] if parent >= 0 else None
        under[(name, pname)] += 1
        if out:
            outcome_sum[name] += out
            under_found[(name, pname)] += 1
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, secs in self_s.items():
        layer_s[TARGETS[name][0]] += secs
    return {"self_s": self_s, "self_by_command": self_by_command, "calls": calls,
            "under": under, "outcome_sum": outcome_sum, "under_found": under_found,
            "layer_s": layer_s}
